//! # rum-obs
//!
//! A zero-dependency exporter for the [`rum_core::metrics`] plane: walks
//! a [`MetricsPlane`] (its debt ledger and its published record) once
//! per scrape and formats the walk as Prometheus text exposition
//! (version 0.0.4) or as a JSON snapshot, served over a plain
//! `std::net::TcpListener` — no async runtime, no HTTP crate.
//!
//! * [`render_prometheus`] / [`parse_prometheus`] — text format out and
//!   (a validating subset) back in; the parser is what the CI smoke leg
//!   uses to prove the exposition is well-formed.
//! * [`render_json`] — the same series as one JSON object, with
//!   histogram quantiles pre-computed.
//! * [`serve`] — a background thread accepting connections and
//!   answering `GET /metrics` and `GET /snapshot.json`; bind to port 0
//!   for an ephemeral port, and drop (or
//!   [`shutdown`](MetricsServer::shutdown)) to stop it.
//! * [`http_get`] — the matching one-shot client, used by `rum_top` and
//!   the smoke tests.
//!
//! Everything here *reads* the plane; nothing writes it, so an exporter
//! attached to a live run is as observer-free as the metrics plane
//! itself.

#![forbid(unsafe_code)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rum_core::metrics::{DebtSnapshot, MetricsPlane, OpClass, Published};
use rum_core::trace::{EventKind, LatencyHistogram};

// ---- the walk ---------------------------------------------------------------

/// One exported series' value.
enum Sample<'a> {
    Counter(u64),
    Gauge(f64),
    Histogram(&'a LatencyHistogram),
}

/// One exported series. Names and label values are fixed snake_case
/// identifiers, so neither format escapes them.
struct Series<'a> {
    name: &'static str,
    /// Label pairs sorted by label name.
    labels: Vec<(&'static str, &'static str)>,
    sample: Sample<'a>,
}

impl Sample<'_> {
    /// The exposition section (and `# TYPE`) this value belongs to.
    fn section(&self) -> (usize, &'static str) {
        match self {
            Sample::Counter(_) => (0, "counter"),
            Sample::Gauge(_) => (1, "gauge"),
            Sample::Histogram(_) => (2, "histogram"),
        }
    }
}

/// Every series the plane's state exports, in exposition order:
/// counters, gauges, then histograms, each by name and then labels.
///
/// * `rum_events_total{kind}` / `rum_event_bytes_total{component,kind}`
///   — the ledger's event counts and byte weights (a kind that never
///   fired, or never carried bytes, has no series).
///
/// Once the run has published (its first window close):
/// * `rum_class_read_amplification{class}` / `rum_class_write_amplification{class}`
///   — live per-op-class amortized RO/UO (causally attributed;
///   non-finite values read 0 so every published value is finite).
/// * `rum_class_attributed_read_bytes{class}` / `..._write_bytes{class}`
///   and `rum_class_logical_read_bytes{class}` / `..._write_bytes{class}`.
/// * `rum_debt_accrued_bytes` / `rum_debt_settled_bytes` /
///   `rum_debt_outstanding_bytes` — the deferred-write debt balance.
/// * `rum_reattributed_read_bytes` / `rum_reattributed_write_bytes`.
/// * `rum_space_amplification` (MO) and `rum_live_records`.
/// * `rum_op_latency_ns{class}` — the run's op latency histogram, and
///   `rum_op_latency_p50_ns{class}` / `rum_op_latency_p99_ns{class}` from
///   it; a class with no ops yet exports none of the three.
/// * Once finished: the `rum_tracker_*_bytes` totals and
///   `rum_conservation_ok` (1 when [`DebtSnapshot::conserves`] holds).
fn walk<'a>(debt: &DebtSnapshot, published: Option<&'a Published>) -> Vec<Series<'a>> {
    let mut out = Vec::new();
    let mut push = |name, labels: &[_], sample| {
        out.push(Series {
            name,
            labels: labels.to_vec(),
            sample,
        })
    };
    for (i, (_, kind, component)) in EventKind::ALL.into_iter().enumerate() {
        let (events, bytes) = (debt.events[i], debt.event_bytes[i]);
        if events > 0 {
            let labels = [("kind", kind)];
            push("rum_events_total", &labels, Sample::Counter(events));
        }
        if bytes > 0 {
            let labels = [("component", component), ("kind", kind)];
            push("rum_event_bytes_total", &labels, Sample::Counter(bytes));
        }
    }
    if let Some(p) = published {
        for class in OpClass::ALL {
            let (a, labels) = (debt.class(class), [("class", class.as_str())]);
            for (name, v) in [
                ("rum_class_read_amplification", finite_or_zero(a.ro())),
                ("rum_class_write_amplification", finite_or_zero(a.uo())),
                (
                    "rum_class_attributed_read_bytes",
                    a.attributed_read_bytes() as f64,
                ),
                (
                    "rum_class_attributed_write_bytes",
                    a.attributed_write_bytes() as f64,
                ),
                (
                    "rum_class_logical_read_bytes",
                    a.charged.logical_read_bytes as f64,
                ),
                (
                    "rum_class_logical_write_bytes",
                    a.charged.logical_write_bytes as f64,
                ),
            ] {
                push(name, &labels, Sample::Gauge(v));
            }
        }
        let mut gauges = vec![
            ("rum_debt_accrued_bytes", debt.debt_accrued_bytes as f64),
            ("rum_debt_settled_bytes", debt.debt_settled_bytes as f64),
            (
                "rum_debt_outstanding_bytes",
                debt.debt_outstanding_bytes() as f64,
            ),
            (
                "rum_reattributed_read_bytes",
                debt.reattributed_read_bytes as f64,
            ),
            (
                "rum_reattributed_write_bytes",
                debt.reattributed_write_bytes as f64,
            ),
            ("rum_space_amplification", finite_or_zero(p.mo)),
            ("rum_live_records", p.live_records as f64),
        ];
        if let Some(t) = &p.totals {
            gauges.extend([
                ("rum_tracker_read_bytes", t.total_read_bytes() as f64),
                ("rum_tracker_write_bytes", t.total_write_bytes() as f64),
                (
                    "rum_tracker_logical_read_bytes",
                    t.logical_read_bytes as f64,
                ),
                (
                    "rum_tracker_logical_write_bytes",
                    t.logical_write_bytes as f64,
                ),
                (
                    "rum_conservation_ok",
                    f64::from(u8::from(debt.conserves(t))),
                ),
            ]);
        }
        for (name, v) in gauges {
            push(name, &[], Sample::Gauge(v));
        }
        for (class, h) in [("read", &p.latency.read), ("write", &p.latency.write)] {
            if h.count() > 0 {
                let (labels, p50, p99) = ([("class", class)], h.p50() as f64, h.p99() as f64);
                push("rum_op_latency_ns", &labels, Sample::Histogram(h));
                push("rum_op_latency_p50_ns", &labels, Sample::Gauge(p50));
                push("rum_op_latency_p99_ns", &labels, Sample::Gauge(p99));
            }
        }
    }
    let key = |s: &Series| (s.sample.section().0, s.name);
    out.sort_by(|a, b| (key(a), &a.labels).cmp(&(key(b), &b.labels)));
    out
}

fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

// ---- text exposition -------------------------------------------------------

fn render_labels(labels: &[(&str, &str)], le: Option<&str>) -> String {
    let pairs = labels.iter().copied().chain(le.map(|v| ("le", v)));
    let pairs: Vec<String> = pairs.map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Render the plane in Prometheus text exposition format: counters,
/// gauges, then histograms (cumulative `_bucket{le=…}` series over the
/// non-empty log buckets, plus `+Inf`, `_sum`, and `_count`). `# TYPE`
/// lines are emitted once per metric name; series order is
/// deterministic (name, then sorted labels).
pub fn render_prometheus(plane: &MetricsPlane) -> String {
    let (debt, published) = (plane.ledger().snapshot(), plane.published());
    let mut out = String::new();
    let mut last = "";
    for s in walk(&debt, published.as_ref()) {
        let (name, labels) = (s.name, render_labels(&s.labels, None));
        if name != last {
            out.push_str(&format!("# TYPE {name} {}\n", s.sample.section().1));
            last = name;
        }
        match s.sample {
            Sample::Counter(v) => out.push_str(&format!("{name}{labels} {v}\n")),
            Sample::Gauge(v) => out.push_str(&format!("{name}{labels} {v}\n")),
            Sample::Histogram(h) => {
                let mut cumulative = 0u64;
                for (upper, count) in h.nonzero_buckets() {
                    cumulative += count;
                    let le = render_labels(&s.labels, Some(&upper.to_string()));
                    out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
                }
                let le = render_labels(&s.labels, Some("+Inf"));
                out.push_str(&format!("{name}_bucket{le} {}\n", h.count()));
                out.push_str(&format!("{name}_sum{labels} {}\n", h.sum()));
                out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
            }
        }
    }
    out
}

/// One parsed sample line of a Prometheus text exposition.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    pub name: String,
    /// Label pairs in appearance order.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl PromSample {
    /// The value of the named label, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse (and thereby validate) a Prometheus text exposition: returns
/// every sample line, or a `"line N: why"` error on the first malformed
/// line. Comments (`#`) and blank lines are skipped; an optional
/// trailing timestamp is accepted and ignored. This is the validator
/// the CI smoke leg runs over a live scrape.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |why: &str| format!("line {}: {why}: {raw:?}", idx + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (ident, rest) = match line.find(['{', ' ', '\t']) {
            Some(pos) => (&line[..pos], &line[pos..]),
            None => return Err(err("no value")),
        };
        if !valid_name(ident) {
            return Err(err("invalid metric name"));
        }
        let mut labels = Vec::new();
        let rest = if let Some(body) = rest.strip_prefix('{') {
            let close = body.find('}').ok_or_else(|| err("unclosed label set"))?;
            let label_src = &body[..close];
            if !label_src.is_empty() {
                for pair in label_src.split(',') {
                    let (k, v) = pair.split_once('=').ok_or_else(|| err("label without ="))?;
                    if !valid_name(k.trim()) {
                        return Err(err("invalid label name"));
                    }
                    let v = v.trim();
                    if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
                        return Err(err("label value not quoted"));
                    }
                    labels.push((
                        k.trim().to_string(),
                        v[1..v.len() - 1]
                            .replace("\\\"", "\"")
                            .replace("\\n", "\n")
                            .replace("\\\\", "\\"),
                    ));
                }
            }
            &body[close + 1..]
        } else {
            rest
        };
        let mut parts = rest.split_whitespace();
        let value_src = parts.next().ok_or_else(|| err("no value"))?;
        let value = match value_src {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse::<f64>().map_err(|_| err("unparsable value"))?,
        };
        if parts.next().is_some() && parts.next().is_some() {
            return Err(err("trailing garbage after timestamp"));
        }
        samples.push(PromSample {
            name: ident.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

// ---- JSON snapshot ---------------------------------------------------------

/// Render the plane as one JSON object:
/// `{"counters":[…],"gauges":[…],"histograms":[…]}`, histograms with
/// count/sum/min/p50/p90/p99/max pre-computed. Hand-rolled because the
/// workspace builds offline with no JSON dependency.
pub fn render_json(plane: &MetricsPlane) -> String {
    let (debt, published) = (plane.ledger().snapshot(), plane.published());
    let mut sections: [Vec<String>; 3] = Default::default();
    for s in walk(&debt, published.as_ref()) {
        let labels: Vec<String> = s
            .labels
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        let head = format!(
            "\"name\":\"{}\",\"labels\":{{{}}}",
            s.name,
            labels.join(",")
        );
        let body = match s.sample {
            Sample::Counter(v) => format!("{{{head},\"value\":{v}}}"),
            Sample::Gauge(v) => format!("{{{head},\"value\":{v}}}"),
            Sample::Histogram(h) => format!(
                "{{{head},\"count\":{},\"sum\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            ),
        };
        sections[s.sample.section().0].push(body);
    }
    let [counters, gauges, histograms] = sections.map(|s| s.join(","));
    format!("{{\"counters\":[{counters}],\"gauges\":[{gauges}],\"histograms\":[{histograms}]}}")
}

// ---- the server ------------------------------------------------------------

/// Handle to a running exporter. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop and joins the
/// thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address — with port 0 this is where the ephemeral port
    /// actually landed.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the accept loop, and join the thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `GET /metrics` (Prometheus text) and `GET /snapshot.json` from
/// `plane` on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
/// One background thread handles connections serially — scrape traffic,
/// not serving traffic. Every response renders the plane at request
/// time, so a scrape mid-run sees the ledger as it stands and the
/// record of the last window close.
pub fn serve(plane: Arc<MetricsPlane>, addr: &str) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("rum-obs-exporter".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut stream) = conn {
                    let _ = answer(&mut stream, &plane);
                }
            }
        })?;
    Ok(MetricsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

fn read_request_path(stream: &mut TcpStream) -> io::Result<String> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let mut first = text.lines().next().unwrap_or("").split_whitespace();
    match (first.next(), first.next()) {
        (Some("GET"), Some(path)) => Ok(path.to_string()),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "not a GET")),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn answer(stream: &mut TcpStream, plane: &MetricsPlane) -> io::Result<()> {
    let path = match read_request_path(stream) {
        Ok(p) => p,
        // A malformed request (or the shutdown wake-up connection)
        // just closes.
        Err(_) => return Ok(()),
    };
    match path.as_str() {
        "/metrics" => {
            let body = render_prometheus(plane);
            write_response(
                stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/snapshot.json" => {
            let body = render_json(plane);
            write_response(stream, "200 OK", "application/json", &body)
        }
        "/" => write_response(
            stream,
            "200 OK",
            "text/plain; charset=utf-8",
            "rum-obs exporter\n/metrics — Prometheus text\n/snapshot.json — JSON snapshot\n",
        ),
        _ => write_response(
            stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n",
        ),
    }
}

/// One-shot HTTP GET against `addr` (e.g. the server's
/// [`local_addr`](MetricsServer::local_addr)). Returns the status code
/// and body. The client side of [`serve`], for dashboards and smoke
/// tests.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<(u16, String)> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::trace::{ClassLatency, TraceSink};
    use rum_core::CostSnapshot;

    /// A plane fed through its sink and its ledger, and the record a
    /// finished run publishes: 3 flushes and 9 WAL syncs, one read-class
    /// charge, three read latencies and no writes.
    fn sample_plane() -> Arc<MetricsPlane> {
        let plane = Arc::new(MetricsPlane::new());
        let sink = plane.sink();
        for _ in 0..3 {
            sink.emit(EventKind::LsmFlush, &[("level", 0), ("bytes", 4_096)]);
        }
        for _ in 0..9 {
            sink.emit(EventKind::WalSync, &[("bytes", 100)]);
        }
        plane.ledger().begin_class(OpClass::Read);
        let d = CostSnapshot {
            base_read_bytes: 2_048,
            logical_read_bytes: 1_024,
            ..Default::default()
        };
        plane.ledger().charge(OpClass::Read, &d);
        let mut latency = ClassLatency::default();
        for v in [10, 20, 30] {
            latency.record(true, v);
        }
        plane.publish(Published {
            latency,
            mo: 1.25,
            live_records: 42,
            totals: Some(d),
        });
        plane
    }

    fn value(samples: &[PromSample], name: &str, label: Option<(&str, &str)>) -> Option<f64> {
        let hit =
            |s: &&PromSample| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v));
        samples.iter().find(hit).map(|s| s.value)
    }

    #[test]
    fn render_parse_roundtrip_preserves_samples() {
        let text = render_prometheus(&sample_plane());
        assert!(text.contains("# TYPE rum_events_total counter"));
        assert!(text.contains("rum_events_total{kind=\"lsm_flush\"} 3"));
        assert!(text.contains("rum_event_bytes_total{component=\"wal\",kind=\"wal_sync\"} 900"));
        assert!(text.contains("# TYPE rum_op_latency_ns histogram"));
        assert!(text.contains("rum_op_latency_ns_count{class=\"read\"} 3"));
        assert!(text.contains("le=\"+Inf\"} 3"));
        let samples = parse_prometheus(&text).expect("rendered text must parse");
        let flush = value(&samples, "rum_events_total", Some(("kind", "lsm_flush")));
        assert_eq!(flush, Some(3.0));
        let inf = value(&samples, "rum_op_latency_ns_bucket", Some(("le", "+Inf")));
        assert_eq!(inf, Some(3.0));
        // Cumulative bucket counts are monotone.
        let mut last = 0.0;
        for s in samples
            .iter()
            .filter(|s| s.name == "rum_op_latency_ns_bucket")
        {
            assert!(s.value >= last, "bucket counts must be cumulative");
            last = s.value;
        }
    }

    /// The gauges come from the ledger and the published record: RO is
    /// attributed over logical bytes, the verdict is checked against the
    /// published totals, and a class with no ops exports no latency.
    #[test]
    fn gauges_render_the_ledger_and_the_published_record() {
        let samples = parse_prometheus(&render_prometheus(&sample_plane())).unwrap();
        let read = Some(("class", "read"));
        assert_eq!(
            value(&samples, "rum_class_read_amplification", read),
            Some(2.0)
        );
        assert_eq!(value(&samples, "rum_conservation_ok", None), Some(1.0));
        assert_eq!(value(&samples, "rum_space_amplification", None), Some(1.25));
        assert_eq!(value(&samples, "rum_live_records", None), Some(42.0));
        assert_eq!(value(&samples, "rum_op_latency_p50_ns", read), Some(20.0));
        let write = Some(("class", "write"));
        assert_eq!(value(&samples, "rum_op_latency_p50_ns", write), None);
        assert!(samples.iter().all(|s| s.value.is_finite()));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("ok_metric 1\n").is_ok());
        assert!(parse_prometheus("metric with spaces 1 2 3 4\n").is_err());
        assert!(parse_prometheus("1leading_digit 5\n").is_err());
        assert!(parse_prometheus("m{unclosed=\"v\" 5\n").is_err());
        assert!(parse_prometheus("m{k=unquoted} 5\n").is_err());
        assert!(parse_prometheus("m notanumber\n").is_err());
        assert!(
            parse_prometheus("m{} +Inf\n").is_ok(),
            "+Inf is a valid value"
        );
        assert!(parse_prometheus("# just a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn json_snapshot_is_structured() {
        let json = render_json(&sample_plane());
        assert!(json.starts_with("{\"counters\":[") && json.ends_with("]}"));
        assert!(json.contains(
            "{\"name\":\"rum_events_total\",\"labels\":{\"kind\":\"wal_sync\"},\"value\":9}"
        ));
        assert!(json.contains("{\"name\":\"rum_live_records\",\"labels\":{},\"value\":42}"));
        assert!(json.contains("\"count\":3,\"sum\":60,\"min\":10,\"p50\":20"));
    }

    #[test]
    fn server_serves_metrics_json_and_404() {
        let plane = Arc::new(MetricsPlane::new());
        let mut server = serve(Arc::clone(&plane), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let scrape = || {
            let (status, body) = http_get(addr, "/metrics").expect("scrape");
            assert_eq!(status, 200);
            parse_prometheus(&body).expect("live scrape parses")
        };
        // The sink alone feeds counters; gauges wait for the first record.
        plane.sink().emit(EventKind::WalSync, &[("bytes", 8)]);
        let samples = scrape();
        assert_eq!(value(&samples, "rum_events_total", None), Some(1.0));
        assert_eq!(value(&samples, "rum_space_amplification", None), None);
        // The scrape is live: publish, emit, and scrape again.
        plane.publish(Published::default());
        plane.sink().emit(EventKind::WalSync, &[("bytes", 8)]);
        let samples = scrape();
        assert_eq!(value(&samples, "rum_events_total", None), Some(2.0));
        assert_eq!(value(&samples, "rum_space_amplification", None), Some(0.0));
        let (status, json) = http_get(addr, "/snapshot.json").unwrap();
        assert_eq!(status, 200);
        assert!(json.contains("\"gauges\":["));
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || http_get(addr, "/metrics").is_err(),
            "server is down after shutdown"
        );
    }
}
