//! The fleet metastore: a tiny manifest server speaking the `GPHN`
//! `GetManifest`/`PublishManifest` ops over the same [`EventLoop`] the
//! query servers run on.
//!
//! The metastore holds exactly one piece of state — the current
//! [`FleetManifest`] — and enforces one rule: published versions must
//! strictly increase. A publish that does not beat the current version
//! is answered with [`WireError::ManifestStale`] carrying the version
//! the store kept, so a racing deployer always learns what it lost to.
//! Readers ([`crate::FleetClient`], operators) fetch the manifest with
//! `GetManifest`; before the first publish they get an empty answer,
//! not an error. Invalid manifests (orphaned or doubly-owned shard
//! slots, address-less nodes) are rejected outright, so every manifest
//! a client can ever observe routes every shard exactly once.
//!
//! Every op is answered in place on the event worker ([`Reply::Now`]):
//! the metastore never talks to a node. Fleet-wide metrics are the
//! caller's job — [`crate::FleetClient::metrics`] scrapes the manifest's
//! addresses itself — and the metastore's own `Metrics` exposition
//! carries only its event-loop series.

use crate::event::{EventLoop, NetServerStats, Reply, RequestHandler, ServerConfig};
use crate::protocol::{FleetManifest, Request, Response, WireError};
use gph_obs::MetricsRegistry;
use parking_lot::Mutex;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// A manifest server: versions the fleet's shard→node map.
pub struct MetastoreServer {
    inner: EventLoop,
    state: Arc<MetastoreHandler>,
}

impl MetastoreServer {
    /// Binds `addr` and starts serving manifest ops.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> std::io::Result<MetastoreServer> {
        let registry = Arc::new(MetricsRegistry::new());
        let state = Arc::new(MetastoreHandler {
            manifest: Mutex::new(None),
            registry: Arc::clone(&registry),
        });
        let handler: Arc<dyn RequestHandler> = Arc::clone(&state) as _;
        let inner = EventLoop::bind(addr, handler, cfg, &registry)?;
        Ok(MetastoreServer { inner, state })
    }

    /// The address the metastore is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// The manifest currently installed, if any (same view `GetManifest`
    /// serves).
    pub fn manifest(&self) -> Option<FleetManifest> {
        self.state.manifest.lock().clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetServerStats {
        self.inner.stats()
    }

    /// Drains in-flight requests, joins every thread, and returns the
    /// final counters.
    pub fn shutdown(self) -> NetServerStats {
        self.inner.shutdown()
    }
}

struct MetastoreHandler {
    manifest: Mutex<Option<FleetManifest>>,
    /// The event loop's `gph_net_*` series, rendered for `Metrics`.
    registry: Arc<MetricsRegistry>,
}

impl RequestHandler for MetastoreHandler {
    fn handle(&self, req: Request) -> Reply {
        Reply::Now(match req {
            Request::Ping => Response::Pong,
            Request::Metrics => Response::Metrics { text: self.registry.render() },
            Request::GetManifest => Response::Manifest { manifest: self.manifest.lock().clone() },
            Request::PublishManifest { manifest } => {
                if let Err(msg) = manifest.validate() {
                    return Reply::Now(Response::Error(WireError::Unsupported(format!(
                        "invalid manifest: {msg}"
                    ))));
                }
                let mut current = self.manifest.lock();
                match current.as_ref() {
                    Some(kept) if manifest.version <= kept.version => {
                        Response::Error(WireError::ManifestStale { current: kept.version })
                    }
                    _ => {
                        let version = manifest.version;
                        *current = Some(manifest);
                        Response::ManifestAck { version }
                    }
                }
            }
            _ => Response::Error(WireError::Unsupported(
                "this server is a metastore; it serves ping, metrics and manifest ops".into(),
            )),
        })
    }
}
