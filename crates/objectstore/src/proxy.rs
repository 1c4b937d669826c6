//! Proxy servers: authentication, routing, replication fan-out, listings.
//!
//! Swift proxies "are in charge of authentication, authorization and access
//! control enforcement of storage requests. Upon reception of a valid request,
//! a proxy server routes it to the corresponding object servers". The
//! container/account metadata service lives with the proxies here, mirroring
//! the paper's testbed where "container and account rings were defined over
//! ... the 6 proxies".

use crate::auth::AuthService;
use crate::health::NodeHealth;
use crate::hedge::{self, note_read_failure};
use crate::middleware::Pipeline;
use crate::net::wire::{self, Target};
use crate::objserver::{ObjectServer, STAGE_HEADER, STAGE_PROXY};
use crate::path::ObjectPath;
use crate::request::{Headers, Method, Request, Response};
use crate::ring::{DeviceId, Ring};
use bytes::Bytes;
use parking_lot::RwLock;
use scoop_common::telemetry::{self, names, ScopedCounter};
use scoop_common::{headers, stream, Deadline, Result, ScoopError};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One entry in a container listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Object name within the container.
    pub name: String,
    /// Payload size in bytes.
    pub size: u64,
    /// Content fingerprint.
    pub etag: String,
}

/// Account + container metadata: which containers exist, what objects they
/// hold. Shared across all proxies.
#[derive(Debug, Default)]
pub struct ContainerService {
    containers: RwLock<BTreeMap<String, BTreeSet<String>>>,
    listings: RwLock<BTreeMap<(String, String), BTreeMap<String, ObjectRecord>>>,
}

impl ContainerService {
    /// Create an empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a container (idempotent).
    pub fn create_container(&self, account: &str, container: &str) {
        self.containers
            .write()
            .entry(account.to_string())
            .or_default()
            .insert(container.to_string());
        self.listings
            .write()
            .entry((account.to_string(), container.to_string()))
            .or_default();
    }

    /// Delete a container; fails when non-empty or absent.
    pub fn delete_container(&self, account: &str, container: &str) -> Result<()> {
        let key = (account.to_string(), container.to_string());
        let mut listings = self.listings.write();
        match listings.get(&key) {
            None => return Err(ScoopError::NotFound(format!("container /{account}/{container}"))),
            Some(objs) if !objs.is_empty() => {
                return Err(ScoopError::Conflict(format!(
                    "container /{account}/{container} is not empty"
                )))
            }
            Some(_) => {
                listings.remove(&key);
            }
        }
        if let Some(set) = self.containers.write().get_mut(account) {
            set.remove(container);
        }
        Ok(())
    }

    /// True when the container exists.
    pub fn container_exists(&self, account: &str, container: &str) -> bool {
        self.listings
            .read()
            .contains_key(&(account.to_string(), container.to_string()))
    }

    /// Containers of an account.
    pub fn list_containers(&self, account: &str) -> Vec<String> {
        self.containers
            .read()
            .get(account)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Objects in a container, optionally filtered by name prefix.
    pub fn list_objects(
        &self,
        account: &str,
        container: &str,
        prefix: Option<&str>,
    ) -> Result<Vec<ObjectRecord>> {
        let listings = self.listings.read();
        let objs = listings
            .get(&(account.to_string(), container.to_string()))
            .ok_or_else(|| ScoopError::NotFound(format!("container /{account}/{container}")))?;
        Ok(objs
            .values()
            .filter(|r| prefix.is_none_or(|p| r.name.starts_with(p)))
            .cloned()
            .collect())
    }

    /// Record a successful object PUT.
    pub fn record_put(&self, path: &ObjectPath, size: u64, etag: &str) {
        if let Some(objs) = self
            .listings
            .write()
            .get_mut(&(path.account.clone(), path.container.clone()))
        {
            objs.insert(
                path.object.clone(),
                ObjectRecord { name: path.object.clone(), size, etag: etag.to_string() },
            );
        }
    }

    /// Record a successful object DELETE.
    pub fn record_delete(&self, path: &ObjectPath) {
        if let Some(objs) = self
            .listings
            .write()
            .get_mut(&(path.account.clone(), path.container.clone()))
        {
            objs.remove(&path.object);
        }
    }

    /// Per-container statistics (object count, total logical bytes) — the
    /// Swift `HEAD /account/container` numbers.
    pub fn container_stats(&self, account: &str, container: &str) -> Result<(u64, u64)> {
        let listings = self.listings.read();
        let objs = listings
            .get(&(account.to_string(), container.to_string()))
            .ok_or_else(|| ScoopError::NotFound(format!("container /{account}/{container}")))?;
        let count = objs.len() as u64;
        let bytes = objs.values().map(|r| r.size).sum();
        Ok((count, bytes))
    }

    /// All object paths known to the service (replicator audit input).
    pub fn all_objects(&self) -> Vec<(ObjectPath, u64)> {
        let listings = self.listings.read();
        let mut out = Vec::new();
        for ((account, container), objs) in listings.iter() {
            for rec in objs.values() {
                if let Ok(p) = ObjectPath::new(account.clone(), container.clone(), rec.name.clone())
                {
                    out.push((p, rec.size));
                }
            }
        }
        out
    }
}

/// Counters for proxy throughput (drives the Fig. 9 network series). Each
/// is a [`ScopedCounter`]: per-proxy values stay exact while every increment
/// also feeds the process-wide `scoop_proxy_*` registry metric.
#[derive(Debug)]
pub struct ProxyStats {
    /// Requests routed.
    pub requests: ScopedCounter,
    /// Body bytes relayed toward clients.
    pub bytes_to_clients: ScopedCounter,
    /// Read requests re-routed to another replica after a retryable
    /// failure (the store's first line of defence under faults).
    pub replica_failovers: ScopedCounter,
    /// Hedge requests launched: a second replica raced after the first
    /// stayed silent past the hedge threshold.
    pub hedged_gets: ScopedCounter,
    /// Hedged reads where a hedge (not the first replica) answered first.
    pub hedge_wins: ScopedCounter,
}

impl Default for ProxyStats {
    fn default() -> Self {
        ProxyStats {
            requests: ScopedCounter::new(names::PROXY_REQUESTS),
            bytes_to_clients: ScopedCounter::new(names::PROXY_BYTES_TO_CLIENTS),
            replica_failovers: ScopedCounter::new(names::PROXY_REPLICA_FAILOVERS),
            hedged_gets: ScopedCounter::new(names::PROXY_HEDGED_GETS),
            hedge_wins: ScopedCounter::new(names::PROXY_HEDGE_WINS),
        }
    }
}

/// A proxy server.
pub struct ProxyServer {
    /// Proxy id (0-based).
    pub id: u32,
    ring: Arc<RwLock<Ring>>,
    servers: Arc<HashMap<u32, Arc<ObjectServer>>>,
    containers: Arc<ContainerService>,
    auth: Arc<AuthService>,
    auth_enabled: bool,
    pipeline: RwLock<Pipeline>,
    /// Cluster-shared per-node circuit breakers (reads only).
    health: Option<Arc<NodeHealth>>,
    /// Race a second replica after this long without a first response.
    hedge_after: Option<Duration>,
    /// Throughput counters.
    pub stats: ProxyStats,
}

impl ProxyServer {
    /// Assemble a proxy.
    pub fn new(
        id: u32,
        ring: Arc<RwLock<Ring>>,
        servers: Arc<HashMap<u32, Arc<ObjectServer>>>,
        containers: Arc<ContainerService>,
        auth: Arc<AuthService>,
        auth_enabled: bool,
    ) -> Self {
        ProxyServer {
            id,
            ring,
            servers,
            containers,
            auth,
            auth_enabled,
            pipeline: RwLock::new(Pipeline::new()),
            health: None,
            hedge_after: None,
            stats: ProxyStats::default(),
        }
    }

    /// Builder: consult (and feed) the given circuit-breaker registry for
    /// replica reads. One registry is shared across all proxies of a
    /// cluster so every replica outcome trains the same breakers.
    pub fn with_health(mut self, health: Arc<NodeHealth>) -> Self {
        self.health = Some(health);
        self
    }

    /// Builder: enable hedged GETs — after `hedge_after` without a response
    /// from the current replica, race the next one and stream back
    /// whichever answers first.
    pub fn with_hedging(mut self, hedge_after: Duration) -> Self {
        self.hedge_after = Some(hedge_after);
        self
    }

    /// Install the proxy-stage middleware pipeline.
    pub fn set_pipeline(&self, pipeline: Pipeline) {
        *self.pipeline.write() = pipeline;
    }

    fn authorize(&self, req: &Request) -> Result<()> {
        if !self.auth_enabled {
            return Ok(());
        }
        let token = req
            .headers
            .get(headers::AUTH_TOKEN)
            .ok_or_else(|| ScoopError::Unauthorized("missing X-Auth-Token".into()))?;
        match self.auth.validate(token) {
            Some(account) if account == req.path.account => Ok(()),
            Some(account) => Err(ScoopError::Unauthorized(format!(
                "token for account {account} cannot access {}",
                req.path.account
            ))),
            None => Err(ScoopError::Unauthorized("invalid token".into())),
        }
    }

    /// Handle a client request: auth → proxy middleware → route to replicas.
    pub fn handle(&self, mut req: Request) -> Result<Response> {
        self.authorize(&req)?;
        req.deadline
            .check(&format!("proxy {} {:?}", self.id, req.method))?;
        self.stats.requests.inc();
        let _span = telemetry::span(
            req.headers.get(headers::TRACE),
            telemetry::layers::PROXY,
            format!("proxy {} {:?} {}", self.id, req.method, req.path.ring_key()),
        );
        req.headers.set(STAGE_HEADER, STAGE_PROXY);
        let pipeline = self.pipeline.read().clone();
        pipeline.execute(req, &|req: Request| self.route(req))
    }

    /// The endpoint router both transports share: the in-process client
    /// calls it directly, the TCP front end after decoding a frame. Object
    /// requests run [`ProxyServer::handle`]; container operations and the
    /// observability endpoints are served unauthenticated.
    ///
    /// Zone-map stats chunks (`x-object-meta-scoop-stats-*`) never leave
    /// the proxy: they are dropped here, after the pipeline, on the way to
    /// the client. The planner reads them below this exit (its HEAD runs
    /// inside the pipeline), and an indexed object's chunks can outgrow a
    /// response head on the wire.
    pub fn serve(
        &self,
        method: Method,
        target: Target,
        headers_map: Headers,
        body: Option<Bytes>,
        deadline: Deadline,
    ) -> Result<Response> {
        let get_only = |endpoint: &str| match method {
            Method::Get => Ok(()),
            _ => Err(ScoopError::InvalidRequest(format!("{endpoint} endpoint is GET-only"))),
        };
        let json = |text: String| {
            Response::ok(stream::once(Bytes::from(text)))
                .with_header("content-type", "application/json")
        };
        match target {
            Target::Info => {
                get_only("info")?;
                Ok(self.info())
            }
            Target::Metrics => {
                get_only("metrics")?;
                let text = telemetry::snapshot().to_prometheus();
                Ok(Response::ok(stream::once(Bytes::from(text)))
                    .with_header("content-type", "text/plain; version=0.0.4"))
            }
            Target::Trace(id) => {
                get_only("trace")?;
                Ok(json(telemetry::trace_to_json(&id)))
            }
            Target::Events => {
                get_only("events")?;
                Ok(json(telemetry::events_to_json(&telemetry::query_events())))
            }
            Target::Container { account, container } => match method {
                Method::Put => {
                    self.containers.create_container(&account, &container);
                    Ok(Response::created())
                }
                Method::Get => {
                    let prefix = headers_map.get(headers::LIST_PREFIX);
                    let records = self.containers.list_objects(&account, &container, prefix)?;
                    let listing = wire::encode_listing(&records);
                    Ok(Response::ok(stream::once(Bytes::from(listing))))
                }
                _ => Err(ScoopError::InvalidRequest(format!(
                    "unsupported container method {}",
                    wire::method_name(method)
                ))),
            },
            Target::Object(path) => {
                let req = Request { method, path, headers: headers_map, body, deadline };
                let mut resp = self.handle(req)?;
                resp.headers.remove_prefix(headers::SCOOP_STATS_PREFIX);
                Ok(resp)
            }
        }
    }

    /// The `GET /info` endpoint: a plain-text dump of the process-wide
    /// telemetry snapshot (Swift's recon/info analogue).
    pub fn info(&self) -> Response {
        let text = telemetry::snapshot().to_text();
        let len = text.len();
        Response::ok(stream::chunked(bytes::Bytes::from(text), crate::objserver::RESPONSE_CHUNK))
            .with_header("content-type", "text/plain")
            .with_header("content-length", len.to_string())
    }

    /// Quorum size for writes.
    fn quorum(&self) -> usize {
        self.ring.read().replicas() / 2 + 1
    }

    fn route(&self, req: Request) -> Result<Response> {
        let ring = self.ring.read();
        let key = req.path.ring_key();
        let replica_devices: Vec<_> = ring.lookup(&key).to_vec();
        let devices: Vec<(crate::ring::DeviceId, u32)> = replica_devices
            .iter()
            .map(|&d| (d, ring.device(d).node))
            .collect();
        drop(ring);

        match req.method {
            Method::Put => {
                if !self
                    .containers
                    .container_exists(&req.path.account, &req.path.container)
                {
                    return Err(ScoopError::NotFound(format!(
                        "container {}",
                        req.path.container_path()
                    )));
                }
                // The authoritative size is the body the proxy fanned out —
                // not whatever a replica echoes back. A replica reporting a
                // different stored length did not durably store this object
                // and must not count toward the write quorum.
                let size = req.body.as_ref().map(|b| b.len() as u64).unwrap_or(0);
                let mut last_err = None;
                let mut oks = 0usize;
                let mut etag = String::new();
                for (dev, node) in &devices {
                    let server = self.server(*node)?;
                    match server.handle(*dev, req.clone()) {
                        Ok(resp) => {
                            match resp.headers.get("content-length").map(|l| l.parse::<u64>()) {
                                Some(Ok(stored)) if stored != size => {
                                    last_err = Some(ScoopError::Internal(format!(
                                        "replica on node {node} stored {stored} of {size} bytes"
                                    )));
                                    continue;
                                }
                                Some(Err(_)) => {
                                    last_err = Some(ScoopError::Internal(format!(
                                        "replica on node {node} returned a malformed length"
                                    )));
                                    continue;
                                }
                                _ => {}
                            }
                            oks += 1;
                            if let Some(e) = resp.headers.get("etag") {
                                etag = e.to_string();
                            }
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                if oks >= self.quorum() {
                    self.containers.record_put(&req.path, size, &etag);
                    Ok(Response::created().with_header("etag", etag))
                } else {
                    Err(last_err.unwrap_or_else(|| {
                        ScoopError::Internal("write quorum not met".into())
                    }))
                }
            }
            Method::Get | Method::Head => self.fetch_read(&req, &devices, &key),
            Method::Delete => {
                let mut oks = 0usize;
                let mut last_err = None;
                for (dev, node) in &devices {
                    match self
                        .server(*node)
                        .and_then(|s| s.handle(*dev, req.clone()))
                    {
                        Ok(_) => oks += 1,
                        Err(e) => last_err = Some(e),
                    }
                }
                // Deletes need the same write quorum as PUT/POST: acking a
                // delete that only reached a minority lets the object
                // "resurrect" from the untouched majority after a repair
                // pass, while the listing already dropped it.
                if oks >= self.quorum() {
                    self.containers.record_delete(&req.path);
                    Ok(Response::no_content())
                } else {
                    Err(last_err.unwrap_or(ScoopError::NotFound(key)))
                }
            }
            Method::Post => {
                let mut oks = 0usize;
                let mut last_err = None;
                for (dev, node) in &devices {
                    match self
                        .server(*node)
                        .and_then(|s| s.handle(*dev, req.clone()))
                    {
                        Ok(_) => oks += 1,
                        Err(e) => last_err = Some(e),
                    }
                }
                if oks >= self.quorum() {
                    Ok(Response::no_content())
                } else {
                    Err(last_err
                        .unwrap_or_else(|| ScoopError::Internal("post quorum not met".into())))
                }
            }
        }
    }

    /// Dispatch a replica read: breaker admission → (optionally hedged)
    /// fan-out over the admitted candidates.
    fn fetch_read(
        &self,
        req: &Request,
        devices: &[(DeviceId, u32)],
        key: &str,
    ) -> Result<Response> {
        let mut last_err: Option<ScoopError> = None;
        let mut candidates: Vec<(DeviceId, u32, Arc<ObjectServer>)> = Vec::new();
        for &(dev, node) in devices {
            // Replicas behind an open breaker are skipped proactively; the
            // error that tripped the breaker (always retryable) stands in
            // for the request we did not send, so a fully short-circuited
            // GET still reports a retryable condition, never a fake 404.
            if let Some(h) = &self.health {
                if !h.admit(node) {
                    if let Some(e) = h.last_error(node) {
                        note_read_failure(&mut last_err, e);
                    }
                    continue;
                }
            }
            match self.server(node) {
                Ok(s) => candidates.push((dev, node, s)),
                Err(e) => last_err = Some(e),
            }
        }
        match self.hedge_after.filter(|_| candidates.len() >= 2) {
            Some(after) => self.fetch_hedged(req, candidates, after, last_err, key),
            None => self.fetch_sequential(req, candidates, last_err, key),
        }
    }

    /// One replica at a time (PR 1 failover semantics), with every outcome
    /// feeding the breaker.
    fn fetch_sequential(
        &self,
        req: &Request,
        candidates: Vec<(DeviceId, u32, Arc<ObjectServer>)>,
        mut last_err: Option<ScoopError>,
        key: &str,
    ) -> Result<Response> {
        for (dev, node, server) in candidates {
            req.deadline.check(&format!("proxy read {key}"))?;
            let result = server.handle(dev, req.clone());
            Self::train_breaker(&self.health, node, &result);
            match result {
                Ok(resp) => {
                    self.count_read(&resp);
                    return Ok(resp);
                }
                // Retryable errors (server down / IO) → next replica.
                // NotFound also moves on: a replica that missed an
                // under-replicated PUT (write quorum met elsewhere, repair
                // not yet run) must not mask the copies the others hold.
                Err(e) if e.is_retryable() || matches!(e, ScoopError::NotFound(_)) => {
                    self.stats.replica_failovers.inc();
                    note_read_failure(&mut last_err, e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| ScoopError::NotFound(format!("object {key}"))))
    }

    /// Hedged read: dispatch the first replica on its own thread; if it
    /// stays silent past the hedge threshold, race the next one. The first
    /// successful byte stream wins; losers finish (and train the breaker)
    /// in the background. The race itself lives in [`crate::hedge`] so the
    /// loom suite can model-check its winner selection.
    fn fetch_hedged(
        &self,
        req: &Request,
        candidates: Vec<(DeviceId, u32, Arc<ObjectServer>)>,
        hedge_after: Duration,
        last_err: Option<ScoopError>,
        key: &str,
    ) -> Result<Response> {
        let attempts: Vec<hedge::Attempt<Response>> = candidates
            .into_iter()
            .map(|(dev, node, server)| {
                let req = req.clone();
                let health = self.health.clone();
                Box::new(move || {
                    let result = server.handle(dev, req);
                    Self::train_breaker(&health, node, &result);
                    result
                }) as hedge::Attempt<Response>
            })
            .collect();
        let outcome = hedge::race(attempts, hedge_after, req.deadline, key, last_err);
        self.stats.hedged_gets.add(outcome.hedges_launched);
        self.stats.replica_failovers.add(outcome.failovers);
        match outcome.result {
            Ok((idx, resp)) => {
                if idx > 0 {
                    self.stats.hedge_wins.inc();
                }
                self.count_read(&resp);
                Ok(resp)
            }
            Err(e) => Err(e),
        }
    }

    /// Feed one replica-read outcome into the shared breaker registry. Only
    /// retryable failures indict a node's health: a 404 from a healthy
    /// replica is a data condition, not a node one.
    fn train_breaker(
        health: &Option<Arc<NodeHealth>>,
        node: u32,
        result: &Result<Response>,
    ) {
        if let Some(h) = health {
            match result {
                Ok(_) => h.record_success(node),
                Err(e) if e.is_retryable() => h.record_failure(node, e),
                Err(_) => {}
            }
        }
    }

    fn count_read(&self, resp: &Response) {
        if let Some(l) = resp.headers.get("content-length") {
            self.stats.bytes_to_clients.add(l.parse().unwrap_or(0));
        }
    }

    fn server(&self, node: u32) -> Result<Arc<ObjectServer>> {
        self.servers
            .get(&node)
            .cloned()
            .ok_or_else(|| ScoopError::Internal(format!("no object server for node {node}")))
    }

    /// The shared container service (listings, container management).
    pub fn containers(&self) -> &ContainerService {
        &self.containers
    }
}

/// The load balancer in front of the proxy tier (the testbed's HAProxy
/// stand-in): one round-robin picker, shared by the cluster and its TCP
/// front end, so both transports spread requests the same way.
#[derive(Debug)]
pub struct LoadBalancer {
    proxies: Vec<Arc<ProxyServer>>,
    next: AtomicUsize,
}

impl LoadBalancer {
    /// Put `proxies` behind the balancer. An empty tier could serve
    /// nothing, so it is rejected here rather than at the first request.
    pub fn new(proxies: Vec<Arc<ProxyServer>>) -> Result<LoadBalancer> {
        if proxies.is_empty() {
            return Err(ScoopError::InvalidRequest("cannot serve zero proxies".into()));
        }
        Ok(LoadBalancer { proxies, next: AtomicUsize::new(0) })
    }

    /// Every proxy behind the balancer.
    pub fn proxies(&self) -> &[Arc<ProxyServer>] {
        &self.proxies
    }

    /// Round-robin proxy selection.
    pub fn next_proxy(&self) -> Arc<ProxyServer> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.proxies.len();
        self.proxies[i].clone() // lint:allow(i < len, and new() rejects an empty tier)
    }

    /// Route one request through the next proxy ([`ProxyServer::serve`]).
    pub fn serve(
        &self,
        method: Method,
        target: Target,
        headers_map: Headers,
        body: Option<Bytes>,
        deadline: Deadline,
    ) -> Result<Response> {
        self.next_proxy().serve(method, target, headers_map, body, deadline)
    }
}

impl std::fmt::Debug for ProxyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyServer").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingBuilder;
    use bytes::Bytes;

    fn make_proxy(auth_enabled: bool) -> (ProxyServer, Arc<AuthService>) {
        let mut builder = RingBuilder::new(6, 3);
        for node in 0..4u32 {
            for _ in 0..2 {
                builder.add_device(node, node, 1.0);
            }
        }
        let ring = Arc::new(RwLock::new(builder.build().unwrap()));
        let mut servers = HashMap::new();
        for node in 0..4u32 {
            let devs: Vec<_> = ring
                .read()
                .devices()
                .iter()
                .filter(|d| d.node == node)
                .map(|d| d.id)
                .collect();
            servers.insert(node, Arc::new(ObjectServer::with_mem_devices(node, &devs)));
        }
        let auth = Arc::new(AuthService::new());
        auth.register_user("AUTH_gp", "u", "k");
        let proxy = ProxyServer::new(
            0,
            ring,
            Arc::new(servers),
            Arc::new(ContainerService::new()),
            auth.clone(),
            auth_enabled,
        );
        (proxy, auth)
    }

    fn p(obj: &str) -> ObjectPath {
        ObjectPath::new("AUTH_gp", "meters", obj).unwrap()
    }

    #[test]
    fn put_requires_container() {
        let (proxy, _) = make_proxy(false);
        let err = proxy
            .handle(Request::put(p("x.csv"), Bytes::from_static(b"d")))
            .unwrap_err();
        assert_eq!(err.kind(), "not_found");
    }

    #[test]
    fn put_get_delete_with_listing() {
        let (proxy, _) = make_proxy(false);
        proxy.containers().create_container("AUTH_gp", "meters");
        let resp = proxy
            .handle(Request::put(p("x.csv"), Bytes::from_static(b"hello")))
            .unwrap();
        assert_eq!(resp.status, 201);

        let listing = proxy
            .containers()
            .list_objects("AUTH_gp", "meters", None)
            .unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].size, 5);

        let got = proxy.handle(Request::get(p("x.csv"))).unwrap();
        assert_eq!(got.read_body().unwrap(), "hello");

        proxy.handle(Request::delete(p("x.csv"))).unwrap();
        assert!(proxy.handle(Request::get(p("x.csv"))).is_err());
        assert!(proxy
            .containers()
            .list_objects("AUTH_gp", "meters", None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn listing_prefix_filter_and_container_lifecycle() {
        let (proxy, _) = make_proxy(false);
        let c = proxy.containers();
        c.create_container("AUTH_gp", "meters");
        proxy
            .handle(Request::put(p("2015/01/a.csv"), Bytes::from_static(b"1")))
            .unwrap();
        proxy
            .handle(Request::put(p("2015/02/b.csv"), Bytes::from_static(b"2")))
            .unwrap();
        assert_eq!(
            c.list_objects("AUTH_gp", "meters", Some("2015/01/")).unwrap().len(),
            1
        );
        assert_eq!(c.list_containers("AUTH_gp"), vec!["meters"]);
        // Non-empty container refuses deletion.
        assert!(c.delete_container("AUTH_gp", "meters").is_err());
        proxy.handle(Request::delete(p("2015/01/a.csv"))).unwrap();
        proxy.handle(Request::delete(p("2015/02/b.csv"))).unwrap();
        c.delete_container("AUTH_gp", "meters").unwrap();
        assert!(!c.container_exists("AUTH_gp", "meters"));
        assert!(c.delete_container("AUTH_gp", "meters").is_err());
    }

    #[test]
    fn auth_is_enforced() {
        let (proxy, auth) = make_proxy(true);
        proxy.containers().create_container("AUTH_gp", "meters");
        // No token.
        assert_eq!(
            proxy
                .handle(Request::get(p("x.csv")))
                .unwrap_err()
                .kind(),
            "unauthorized"
        );
        // Bad token.
        assert_eq!(
            proxy
                .handle(Request::get(p("x.csv")).with_header(headers::AUTH_TOKEN, "nope"))
                .unwrap_err()
                .kind(),
            "unauthorized"
        );
        // Valid token, wrong account.
        auth.register_user("AUTH_other", "u", "k");
        let wrong = auth.issue_token("AUTH_other", "u", "k").unwrap();
        assert_eq!(
            proxy
                .handle(Request::get(p("x.csv")).with_header(headers::AUTH_TOKEN, wrong))
                .unwrap_err()
                .kind(),
            "unauthorized"
        );
        // Valid token, right account (404 now, not 401).
        let tok = auth.issue_token("AUTH_gp", "u", "k").unwrap();
        assert_eq!(
            proxy
                .handle(Request::get(p("x.csv")).with_header(headers::AUTH_TOKEN, tok))
                .unwrap_err()
                .kind(),
            "not_found"
        );
    }

    #[test]
    fn get_survives_replica_failures() {
        let (proxy, _) = make_proxy(false);
        proxy.containers().create_container("AUTH_gp", "meters");
        proxy
            .handle(Request::put(p("x.csv"), Bytes::from_static(b"resilient")))
            .unwrap();
        // Down the primary replica's server.
        let ring = proxy.ring.read();
        let primary = ring.lookup(&p("x.csv").ring_key())[0];
        let node = ring.device(primary).node;
        drop(ring);
        proxy.servers[&node].set_down(true);
        let got = proxy.handle(Request::get(p("x.csv"))).unwrap();
        assert_eq!(got.read_body().unwrap(), "resilient");
    }

    #[test]
    fn delete_requires_write_quorum() {
        let (proxy, _) = make_proxy(false);
        proxy.containers().create_container("AUTH_gp", "meters");
        proxy
            .handle(Request::put(p("x.csv"), Bytes::from_static(b"durable")))
            .unwrap();
        // Down every node but one: at most one replica can ack the delete,
        // which is below the quorum of 2 — the delete must fail and the
        // listing must keep the object.
        let ring = proxy.ring.read();
        let survivor = ring.device(ring.lookup(&p("x.csv").ring_key())[0]).node;
        drop(ring);
        for (node, server) in proxy.servers.iter() {
            if *node != survivor {
                server.set_down(true);
            }
        }
        let err = proxy.handle(Request::delete(p("x.csv"))).unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(
            proxy
                .containers()
                .list_objects("AUTH_gp", "meters", None)
                .unwrap()
                .len(),
            1
        );
        // Once the nodes recover, the delete reaches quorum.
        for server in proxy.servers.values() {
            server.set_down(false);
        }
        proxy.handle(Request::delete(p("x.csv"))).unwrap();
        assert!(proxy
            .containers()
            .list_objects("AUTH_gp", "meters", None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn put_records_request_body_size() {
        let (proxy, _) = make_proxy(false);
        proxy.containers().create_container("AUTH_gp", "meters");
        proxy
            .handle(Request::put(p("x.csv"), Bytes::from_static(b"12345678")))
            .unwrap();
        let listing = proxy
            .containers()
            .list_objects("AUTH_gp", "meters", None)
            .unwrap();
        assert_eq!(listing[0].size, 8);
    }

    #[test]
    fn put_replica_size_mismatch_fails_that_replica() {
        use crate::middleware::{Handler, Middleware, Pipeline};
        // A middleware that lies about the stored length on one node,
        // standing in for a replica that dropped part of the body.
        struct ShortWriter;
        impl Middleware for ShortWriter {
            fn name(&self) -> &str {
                "short-writer"
            }
            fn handle(&self, req: Request, next: &dyn Handler) -> Result<Response> {
                let resp = next.call(req)?;
                Ok(resp.with_header("content-length", "1"))
            }
        }
        let (proxy, _) = make_proxy(false);
        proxy.containers().create_container("AUTH_gp", "meters");
        let ring = proxy.ring.read();
        let nodes: Vec<u32> = ring
            .lookup(&p("x.csv").ring_key())
            .iter()
            .map(|&d| ring.device(d).node)
            .collect();
        drop(ring);
        // One lying replica out of three: quorum (2) still holds.
        let mut pipe = Pipeline::new();
        pipe.push(Arc::new(ShortWriter));
        proxy.servers[&nodes[0]].set_pipeline(pipe.clone());
        proxy
            .handle(Request::put(p("x.csv"), Bytes::from_static(b"payload")))
            .unwrap();
        assert_eq!(
            proxy.containers().list_objects("AUTH_gp", "meters", None).unwrap()[0].size,
            7
        );
        // Two lying replicas: the mismatches break quorum and the PUT fails.
        proxy.servers[&nodes[1]].set_pipeline(pipe);
        let err = proxy
            .handle(Request::put(p("x.csv"), Bytes::from_static(b"payload")))
            .unwrap_err();
        assert!(err.to_string().contains("stored 1 of 7 bytes"), "{err}");
    }

    #[test]
    fn put_fails_without_quorum() {
        let (proxy, _) = make_proxy(false);
        proxy.containers().create_container("AUTH_gp", "meters");
        for s in proxy.servers.values() {
            s.set_down(true);
        }
        assert!(proxy
            .handle(Request::put(p("x.csv"), Bytes::from_static(b"d")))
            .is_err());
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn container_stats_track_puts_and_deletes() {
        let c = ContainerService::new();
        c.create_container("a", "meters");
        assert_eq!(c.container_stats("a", "meters").unwrap(), (0, 0));
        let p1 = ObjectPath::new("a", "meters", "x").unwrap();
        let p2 = ObjectPath::new("a", "meters", "y").unwrap();
        c.record_put(&p1, 100, "e1");
        c.record_put(&p2, 250, "e2");
        assert_eq!(c.container_stats("a", "meters").unwrap(), (2, 350));
        // Overwrite replaces, not accumulates.
        c.record_put(&p1, 40, "e3");
        assert_eq!(c.container_stats("a", "meters").unwrap(), (2, 290));
        c.record_delete(&p2);
        assert_eq!(c.container_stats("a", "meters").unwrap(), (1, 40));
        assert!(c.container_stats("a", "ghost").is_err());
    }
}
