//! Timing probes installed from outside the program, at its public seams:
//! a [`Middleware`] that times a pipeline stage and the lazy body it
//! returns, and a [`StorageConnector`] wrapper that times the compute
//! side's storage calls and the streams they hand back.

use bytes::Bytes;
use scoop_common::headers::SCANNED_BYTES;
use scoop_common::{ByteStream, Result};
use scoop_compute::{ObjectInfo, StorageConnector};
use scoop_csv::PushdownSpec;
use scoop_objectstore::middleware::{Handler, Middleware};
use scoop_objectstore::{Method, Request, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// Counters of one probed boundary. Times are nanoseconds.
#[derive(Default)]
pub struct Ledger {
    /// Non-PUT requests (GET and HEAD) and the time to their response head.
    requests: AtomicU64,
    head_ns: AtomicU64,
    /// Time spent producing response body chunks, and what they carried.
    body_ns: AtomicU64,
    bytes: AtomicU64,
    chunks: AtomicU64,
    /// `x-scoop-scanned-bytes` summed over responses that carried it.
    scanned: AtomicU64,
    /// PUT requests, their time and their request-body bytes.
    puts: AtomicU64,
    put_ns: AtomicU64,
    put_bytes: AtomicU64,
    /// Time and bytes of calls made from the benchmark's driver thread
    /// (connector only): not part of any compute task.
    driver_ns: AtomicU64,
    driver_bytes: AtomicU64,
}

/// A plain-number copy of a [`Ledger`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub requests: u64,
    pub head_ns: u64,
    pub body_ns: u64,
    pub bytes: u64,
    pub chunks: u64,
    pub scanned: u64,
    pub puts: u64,
    pub put_ns: u64,
    pub put_bytes: u64,
    pub driver_ns: u64,
    pub driver_bytes: u64,
}

impl Counts {
    /// Head plus body time, in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        (self.head_ns + self.body_ns) as f64 / 1e6
    }
}

fn add(cell: &AtomicU64, v: u64) {
    cell.fetch_add(v, Ordering::Relaxed);
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl Ledger {
    fn cells(&self) -> [&AtomicU64; 11] {
        [
            &self.requests,
            &self.head_ns,
            &self.body_ns,
            &self.bytes,
            &self.chunks,
            &self.scanned,
            &self.puts,
            &self.put_ns,
            &self.put_bytes,
            &self.driver_ns,
            &self.driver_bytes,
        ]
    }

    pub fn snapshot(&self) -> Counts {
        let [requests, head_ns, body_ns, bytes, chunks, scanned, puts, put_ns, put_bytes, driver_ns, driver_bytes] =
            self.cells().map(|c| c.load(Ordering::Relaxed));
        Counts {
            requests,
            head_ns,
            body_ns,
            bytes,
            chunks,
            scanned,
            puts,
            put_ns,
            put_bytes,
            driver_ns,
            driver_bytes,
        }
    }

    fn body_time(&self, ns: u64, on_driver: bool) {
        add(&self.body_ns, ns);
        if on_driver {
            add(&self.driver_ns, ns);
        }
    }

    fn chunk(&self, len: u64, on_driver: bool) {
        add(&self.bytes, len);
        add(&self.chunks, 1);
        if on_driver {
            add(&self.driver_bytes, len);
        }
    }

    pub fn reset(&self) {
        for c in self.cells() {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Wrap a body so the time to produce each chunk, and its bytes, land
    /// here when the consumer actually pulls them; `on_driver` also books
    /// them as the driver's.
    fn time_body(self: &Arc<Self>, mut inner: ByteStream, on_driver: bool) -> ByteStream {
        let ledger = self.clone();
        Box::new(std::iter::from_fn(move || {
            let t = Instant::now();
            let item = inner.next();
            ledger.body_time(nanos(t), on_driver);
            if let Some(Ok(chunk)) = &item {
                ledger.chunk(chunk.len() as u64, on_driver);
            }
            item
        }))
    }
}

/// A pipeline stage that records what passes through it.
pub struct Probe {
    name: &'static str,
    ledger: Arc<Ledger>,
}

impl Probe {
    pub fn new(name: &'static str, ledger: Arc<Ledger>) -> Arc<Probe> {
        Arc::new(Probe { name, ledger })
    }
}

impl Middleware for Probe {
    fn name(&self) -> &str {
        self.name
    }

    fn handle(&self, req: Request, next: &dyn Handler) -> Result<Response> {
        let l = &self.ledger;
        let t = Instant::now();
        if req.method == Method::Put {
            let size = req.body.as_ref().map_or(0, |b| b.len() as u64);
            let resp = next.call(req);
            add(&l.put_ns, nanos(t));
            add(&l.puts, 1);
            add(&l.put_bytes, size);
            return resp;
        }
        let mut resp = next.call(req)?;
        add(&l.head_ns, nanos(t));
        add(&l.requests, 1);
        if let Some(n) = resp.headers.get(SCANNED_BYTES).and_then(|v| v.parse().ok()) {
            add(&l.scanned, n);
        }
        resp.body = l.time_body(resp.body, false);
        Ok(resp)
    }
}

/// Times every object read the compute side makes. Listing passes through
/// untimed: it is metadata, served beside the proxy pipeline over TCP.
pub struct TimedConnector {
    inner: Arc<dyn StorageConnector>,
    ledger: Arc<Ledger>,
    driver: ThreadId,
}

impl TimedConnector {
    /// `driver` is the thread that submits queries; time spent on it is
    /// kept apart from time blocked inside compute tasks.
    pub fn new(inner: Arc<dyn StorageConnector>, ledger: Arc<Ledger>, driver: ThreadId) -> Self {
        TimedConnector {
            inner,
            ledger,
            driver,
        }
    }

    /// Book one request opened at `t`; returns whether it ran on the driver.
    fn opened(&self, t: Instant) -> bool {
        let ns = nanos(t);
        add(&self.ledger.head_ns, ns);
        add(&self.ledger.requests, 1);
        let on_driver = std::thread::current().id() == self.driver;
        if on_driver {
            add(&self.ledger.driver_ns, ns);
        }
        on_driver
    }

    fn stream(&self, t: Instant, s: Result<ByteStream>) -> Result<ByteStream> {
        let on_driver = self.opened(t);
        Ok(self.ledger.time_body(s?, on_driver))
    }
}

impl StorageConnector for TimedConnector {
    fn list(&self, location: &str, prefix: Option<&str>) -> Result<Vec<ObjectInfo>> {
        self.inner.list(location, prefix)
    }

    fn read_from(&self, location: &str, object: &str, start: u64) -> Result<ByteStream> {
        let t = Instant::now();
        let s = self.inner.read_from(location, object, start);
        self.stream(t, s)
    }

    fn read_pushdown(
        &self,
        location: &str,
        object: &str,
        start: u64,
        end_exclusive: Option<u64>,
        spec: &PushdownSpec,
        file_schema: &[String],
    ) -> Result<ByteStream> {
        let t = Instant::now();
        let s = self
            .inner
            .read_pushdown(location, object, start, end_exclusive, spec, file_schema);
        self.stream(t, s)
    }

    fn fetch_range(&self, location: &str, object: &str, start: u64, end: u64) -> Result<Bytes> {
        let t = Instant::now();
        let data = self.inner.fetch_range(location, object, start, end);
        let on_driver = self.opened(t);
        // The whole range arrives with the call, as one chunk.
        if let Ok(d) = &data {
            self.ledger.chunk(d.len() as u64, on_driver);
        }
        data
    }

    fn set_deadline(&self, deadline: scoop_common::Deadline) {
        self.inner.set_deadline(deadline);
    }

    fn set_trace(&self, trace: Option<String>) {
        self.inner.set_trace(trace);
    }

    fn supports_pushdown(&self) -> bool {
        self.inner.supports_pushdown()
    }

    fn bytes_transferred(&self) -> u64 {
        self.inner.bytes_transferred()
    }

    fn reset_transfer_counter(&self) {
        self.inner.reset_transfer_counter();
    }
}
