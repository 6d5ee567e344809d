//! # rum-obs
//!
//! A zero-dependency exporter for the [`rum_core::metrics`] plane:
//! renders a [`MetricsSnapshot`] in Prometheus text exposition format
//! (version 0.0.4) plus a JSON snapshot, and serves both over a plain
//! `std::net::TcpListener` — no async runtime, no HTTP crate.
//!
//! * [`render_prometheus`] / [`parse_prometheus`] — text format out and
//!   (a validating subset) back in; the parser is what the CI smoke leg
//!   uses to prove the exposition is well-formed.
//! * [`render_json`] — the same snapshot as one JSON object, with
//!   histogram quantiles pre-computed.
//! * [`serve`] — a background thread accepting connections and
//!   answering `GET /metrics` and `GET /snapshot.json`; bind to port 0
//!   for an ephemeral port, and drop (or
//!   [`shutdown`](MetricsServer::shutdown)) to stop it.
//! * [`http_get`] — the matching one-shot client, used by `rum_top` and
//!   the smoke tests.
//!
//! Everything here *reads* the registry; nothing writes it, so an
//! exporter attached to a live run is as observer-free as the metrics
//! plane itself.

#![forbid(unsafe_code)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rum_core::metrics::{MetricKey, MetricsRegistry, MetricsSnapshot};

// ---- text exposition -------------------------------------------------------

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out.push('}');
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn type_line(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        *last = name.to_string();
    }
}

/// Render a snapshot in Prometheus text exposition format: counters,
/// gauges, then histograms (cumulative `_bucket{le=…}` series over the
/// non-empty log buckets, plus `+Inf`, `_sum`, and `_count`). `# TYPE`
/// lines are emitted once per metric name; series order is
/// deterministic (name, then sorted labels).
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last = String::new();
    for (key, v) in &snap.counters {
        type_line(&mut out, &mut last, &key.name, "counter");
        out.push_str(&key.name);
        render_labels(&mut out, &key.labels, None);
        out.push_str(&format!(" {v}\n"));
    }
    for (key, v) in &snap.gauges {
        type_line(&mut out, &mut last, &key.name, "gauge");
        out.push_str(&key.name);
        render_labels(&mut out, &key.labels, None);
        out.push(' ');
        out.push_str(&format_value(*v));
        out.push('\n');
    }
    for (key, h) in &snap.histograms {
        type_line(&mut out, &mut last, &key.name, "histogram");
        let mut cumulative = 0u64;
        for (upper, count) in h.nonzero_buckets() {
            cumulative += count;
            out.push_str(&key.name);
            out.push_str("_bucket");
            render_labels(&mut out, &key.labels, Some(("le", &upper.to_string())));
            out.push_str(&format!(" {cumulative}\n"));
        }
        out.push_str(&key.name);
        out.push_str("_bucket");
        render_labels(&mut out, &key.labels, Some(("le", "+Inf")));
        out.push_str(&format!(" {}\n", h.count()));
        out.push_str(&key.name);
        out.push_str("_sum");
        render_labels(&mut out, &key.labels, None);
        out.push_str(&format!(" {}\n", h.sum()));
        out.push_str(&key.name);
        out.push_str("_count");
        render_labels(&mut out, &key.labels, None);
        out.push_str(&format!(" {}\n", h.count()));
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

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    // JSON has no Inf/NaN literals; non-finite gauges become null.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_key(key: &MetricKey) -> String {
    let labels: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!(
        "\"name\":\"{}\",\"labels\":{{{}}}",
        json_escape(&key.name),
        labels.join(",")
    )
}

/// Render a snapshot as one JSON object:
/// `{"counters":[…],"gauges":[…],"histograms":[…]}`, histograms with
/// count/sum/min/p50/p90/p99/max pre-computed. Hand-rolled (and
/// escape-correct) because the workspace builds offline with no JSON
/// dependency.
pub fn render_json(snap: &MetricsSnapshot) -> String {
    let counters: Vec<String> = snap
        .counters
        .iter()
        .map(|(k, v)| format!("{{{},\"value\":{v}}}", json_key(k)))
        .collect();
    let gauges: Vec<String> = snap
        .gauges
        .iter()
        .map(|(k, v)| format!("{{{},\"value\":{}}}", json_key(k), json_f64(*v)))
        .collect();
    let histograms: Vec<String> = snap
        .histograms
        .iter()
        .map(|(k, h)| {
            format!(
                "{{{},\"count\":{},\"sum\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                json_key(k),
                h.count(),
                h.sum(),
                h.min(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            )
        })
        .collect();
    format!(
        "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    )
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
/// `registry` on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
/// One background thread handles connections serially — scrape traffic,
/// not serving traffic. Every response snapshots the registry at
/// request time, so a scrape mid-run sees the live state.
pub fn serve(registry: Arc<MetricsRegistry>, addr: &str) -> io::Result<MetricsServer> {
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
                    let _ = answer(&mut stream, &registry);
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

fn answer(stream: &mut TcpStream, registry: &MetricsRegistry) -> io::Result<()> {
    let path = match read_request_path(stream) {
        Ok(p) => p,
        // A malformed request (or the shutdown wake-up connection)
        // just closes.
        Err(_) => return Ok(()),
    };
    match path.as_str() {
        "/metrics" => {
            let body = render_prometheus(&registry.snapshot());
            write_response(
                stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/snapshot.json" => {
            let body = render_json(&registry.snapshot());
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
    use rum_core::trace::LatencyHistogram;

    fn sample_registry() -> Arc<MetricsRegistry> {
        let r = MetricsRegistry::shared();
        r.counter_add("rum_events_total", &[("kind", "lsm_flush")], 3);
        r.counter_add("rum_events_total", &[("kind", "wal_sync")], 9);
        r.gauge_set("rum_space_amplification", &[], 1.25);
        r.gauge_set("rum_class_read_amplification", &[("class", "read")], 4.5);
        let mut h = LatencyHistogram::new();
        for v in [100, 200, 100_000] {
            h.record(v);
        }
        r.histogram_set("rum_op_latency_ns", &[("class", "read")], &h);
        r
    }

    #[test]
    fn render_parse_roundtrip_preserves_samples() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE rum_events_total counter"));
        assert!(text.contains("rum_events_total{kind=\"lsm_flush\"} 3"));
        assert!(text.contains("# TYPE rum_op_latency_ns histogram"));
        assert!(text.contains("rum_op_latency_ns_count{class=\"read\"} 3"));
        assert!(text.contains("le=\"+Inf\"} 3"));
        let samples = parse_prometheus(&text).expect("rendered text must parse");
        let flush = samples
            .iter()
            .find(|s| s.name == "rum_events_total" && s.label("kind") == Some("lsm_flush"))
            .unwrap();
        assert_eq!(flush.value, 3.0);
        let inf_bucket = samples
            .iter()
            .find(|s| s.name == "rum_op_latency_ns_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf_bucket.value, 3.0);
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
    fn special_values_render_as_prometheus_spells_them() {
        let r = MetricsRegistry::shared();
        r.gauge_set("g_inf", &[], f64::INFINITY);
        r.gauge_set("g_nan", &[], f64::NAN);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("g_inf +Inf"));
        assert!(text.contains("g_nan NaN"));
        let parsed = parse_prometheus(&text).unwrap();
        assert!(parsed
            .iter()
            .any(|s| s.name == "g_inf" && s.value.is_infinite()));
    }

    #[test]
    fn json_snapshot_is_structured_and_escapes() {
        let r = MetricsRegistry::shared();
        r.counter_add("c", &[("k", "va\"lue")], 1);
        r.gauge_set("g", &[], f64::INFINITY);
        let mut h = LatencyHistogram::new();
        h.record(50);
        r.histogram_set("h", &[], &h);
        let json = render_json(&r.snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\":["));
        assert!(json.contains("va\\\"lue"));
        assert!(
            json.contains("\"value\":null"),
            "non-finite gauge becomes null"
        );
        assert!(json.contains("\"p50\":50"));
    }

    #[test]
    fn server_serves_metrics_json_and_404() {
        let registry = sample_registry();
        let mut server = serve(Arc::clone(&registry), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let (status, body) = http_get(addr, "/metrics").expect("scrape");
        assert_eq!(status, 200);
        let samples = parse_prometheus(&body).expect("live scrape parses");
        assert!(samples.iter().any(|s| s.name == "rum_space_amplification"));
        // The scrape is live: mutate and scrape again.
        registry.counter_add("rum_events_total", &[("kind", "wal_sync")], 1);
        let (_, body2) = http_get(addr, "/metrics").unwrap();
        assert!(body2.contains("rum_events_total{kind=\"wal_sync\"} 10"));
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
