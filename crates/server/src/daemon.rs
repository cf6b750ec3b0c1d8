//! The TCP daemon: accepts connections on a loopback port and serves
//! any [`CampaignService`] over the wire protocol — one request per
//! connection, with `watch` holding its connection open to stream
//! events. A frame from a different protocol version is answered with a
//! typed [`WireError::VersionMismatch`], never a decode failure.
//!
//! The accept loop blocks in `accept`; a [`Request::Shutdown`] sets the
//! shutdown flag and then connects to the daemon's own address, so the
//! loop wakes, sees the flag and stops accepting.

use goofi_core::service::CampaignService;
use goofi_core::{GoofiError, Result};
use goofi_net::{
    read_frame, write_frame, Event, JobListEntry, NetError, NetResult, Request, Response,
    WireError, PROTOCOL_VERSION,
};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A campaign daemon bound to a TCP address.
pub struct Daemon<S: CampaignService + Send + 'static> {
    service: Arc<Mutex<S>>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl<S: CampaignService + Send + 'static> Daemon<S> {
    /// Binds to `addr` (e.g. `127.0.0.1:7077`, or `127.0.0.1:0` for an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Service`] when the address cannot be bound.
    pub fn bind(addr: &str, service: S) -> Result<Daemon<S>> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| GoofiError::Service(format!("cannot bind {addr}: {e}")))?;
        Ok(Daemon {
            service: Arc::new(Mutex::new(service)),
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Service`] when the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| GoofiError::Service(format!("no local address: {e}")))
    }

    /// Serves connections until a [`Request::Shutdown`] arrives. Each
    /// connection is handled on its own thread. After the shutdown the
    /// listener closes, so no new connection is accepted, and `serve`
    /// returns once the connections in flight have ended; a `watch`
    /// streams until its job ends.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Service`] on listener failures.
    pub fn serve(self) -> Result<()> {
        let wake = wake_address(self.local_addr()?);
        let Daemon {
            service,
            listener,
            shutdown,
        } = self;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(GoofiError::Service(format!("accept failed: {e}"))),
            };
            // The shutdown's own wake-up connection lands here too.
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            let (service, shutdown) = (service.clone(), shutdown.clone());
            conns.push(std::thread::spawn(move || {
                if let Err(e) = serve_connection(stream, &service, &shutdown, wake) {
                    // Transport hiccups on one connection don't
                    // concern the daemon; note them and move on.
                    eprintln!("goofi-server: connection error: {e}");
                }
            }));
            conns.retain(|t| !t.is_finished());
        }
        drop(listener);
        for t in conns {
            let _ = t.join();
        }
        Ok(())
    }
}

/// The address a connection to the daemon bound at `bound` reaches it
/// on: `bound` itself, or loopback when bound to every interface.
fn wake_address(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    bound
}

/// The service, also after a connection thread panicked holding it: one
/// failed request must not take every later connection down with it.
fn lock<S>(service: &Mutex<S>) -> MutexGuard<'_, S> {
    service.lock().unwrap_or_else(PoisonError::into_inner)
}

fn respond(stream: &mut TcpStream, response: &Response) -> NetResult<()> {
    write_frame(stream, &response.to_frame()?)
}

/// Handles one connection: exactly one request, one response — plus the
/// event stream for `watch`.
fn serve_connection<S: CampaignService>(
    mut stream: TcpStream,
    service: &Arc<Mutex<S>>,
    shutdown: &Arc<AtomicBool>,
    wake: SocketAddr,
) -> NetResult<()> {
    let frame = match read_frame(&mut stream) {
        // Connecting and hanging up without a request is fine.
        Err(NetError::ClosedStream) => return Ok(()),
        other => other?,
    };
    // The envelope is version-independent, so a mismatched peer gets a
    // typed answer it can decode (the error payload is plain JSON).
    if frame.version != PROTOCOL_VERSION {
        return respond(
            &mut stream,
            &Response::Error {
                error: WireError::VersionMismatch {
                    got: frame.version,
                    want: PROTOCOL_VERSION,
                },
            },
        );
    }
    let request = match Request::from_frame(&frame) {
        Ok(req) => req,
        Err(e) => {
            return respond(
                &mut stream,
                &Response::Error {
                    error: WireError::Rejected {
                        message: format!("undecodable request: {e}"),
                    },
                },
            );
        }
    };
    let response = match request {
        Request::Hello { version } => {
            if version == PROTOCOL_VERSION {
                Response::Hello {
                    version: PROTOCOL_VERSION,
                }
            } else {
                Response::Error {
                    error: WireError::VersionMismatch {
                        got: version,
                        want: PROTOCOL_VERSION,
                    },
                }
            }
        }
        Request::Submit { spec } => match lock(service).submit(spec) {
            Ok(job) => Response::Submitted { job },
            Err(e) => Response::Error {
                error: WireError::Rejected {
                    message: e.to_string(),
                },
            },
        },
        Request::Status { job } => match lock(service).status(&job) {
            Ok(status) => Response::Status { job, status },
            Err(_) => Response::Error {
                error: WireError::NoSuchJob { job },
            },
        },
        Request::Watch { job, from_start } => {
            let events = lock(service).watch(&job, from_start);
            match events {
                Ok(events) => {
                    respond(&mut stream, &Response::Watching { job })?;
                    for event in events {
                        write_frame(&mut stream, &Event::Service { event }.to_frame()?)?;
                    }
                    write_frame(&mut stream, &Event::EndOfStream.to_frame()?)?;
                    stream.flush().map_err(NetError::Io)?;
                    return Ok(());
                }
                Err(_) => Response::Error {
                    error: WireError::NoSuchJob { job },
                },
            }
        }
        Request::Cancel { job } => match lock(service).cancel(&job) {
            Ok(delivered) => Response::Cancelled { job, delivered },
            Err(_) => Response::Error {
                error: WireError::NoSuchJob { job },
            },
        },
        Request::Jobs => match lock(service).jobs() {
            Ok(jobs) => Response::Jobs {
                jobs: jobs
                    .into_iter()
                    .map(|(job, status)| JobListEntry { job, status })
                    .collect(),
            },
            Err(e) => Response::Error {
                error: WireError::Rejected {
                    message: e.to_string(),
                },
            },
        },
        Request::Shutdown => {
            shutdown.store(true, Ordering::Release);
            // Wakes the accept loop; the connection is dropped unserved.
            TcpStream::connect(wake).map_err(NetError::Io)?;
            Response::ShuttingDown
        }
        other => Response::Error {
            error: WireError::Rejected {
                message: format!("unsupported request {other:?}"),
            },
        },
    };
    respond(&mut stream, &response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use goofi_core::service::{EventStream, JobId, JobSpec, JobStatus, ServiceEvent};
    use goofi_core::{
        Campaign, CampaignRef, FaultModel, LocalService, LocationSelector, Technique,
    };
    use goofi_net::RemoteService;
    use goofi_targets::standard_provider;
    use std::time::{Duration, Instant};

    /// A service whose only job streams what the test sends it, and which
    /// reports each `watch` it serves.
    struct Stub {
        events: Receiver<ServiceEvent>,
        watched: Sender<()>,
    }

    impl CampaignService for Stub {
        fn submit(&mut self, _: JobSpec) -> Result<JobId> {
            Err(GoofiError::Service("stub".into()))
        }
        fn status(&mut self, _: &str) -> Result<JobStatus> {
            Err(GoofiError::Service("stub".into()))
        }
        fn watch(&mut self, _: &str, _: bool) -> Result<EventStream> {
            let _ = self.watched.send(());
            Ok(EventStream::from_receiver(self.events.clone()))
        }
        fn cancel(&mut self, _: &str) -> Result<bool> {
            Ok(false)
        }
        fn jobs(&mut self) -> Result<Vec<(JobId, JobStatus)>> {
            Ok(Vec::new())
        }
    }

    /// A daemon on an ephemeral loopback port, serving on its own
    /// thread: its address, the job's event sender, the watch reports
    /// and the serving thread.
    fn start() -> (
        String,
        Sender<ServiceEvent>,
        Receiver<()>,
        std::thread::JoinHandle<Result<()>>,
    ) {
        let (tx, events) = unbounded();
        let (watched, seen) = unbounded();
        let daemon = Daemon::bind("127.0.0.1:0", Stub { events, watched }).unwrap();
        let addr = daemon.local_addr().unwrap().to_string();
        (addr, tx, seen, std::thread::spawn(move || daemon.serve()))
    }

    /// Waits up to ten seconds for `done`.
    fn within_10s(mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn shutdown_returns_serve_on_an_idle_daemon() {
        let (addr, _events, _seen, server) = start();
        RemoteService::connect(addr).unwrap().shutdown().unwrap();
        assert!(within_10s(|| server.is_finished()), "serve() still blocked");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_stops_accepting_while_a_watch_streams_to_its_end() {
        let (addr, events, seen, server) = start();
        let mut watcher = RemoteService::connect(&addr).unwrap();
        let stream = watcher.watch("job-1", true).unwrap();
        assert!(within_10s(|| seen.try_recv().is_ok()), "watch never served");
        events
            .send(ServiceEvent::Started {
                campaign: "c".into(),
                total: 1,
            })
            .unwrap();
        RemoteService::connect(&addr).unwrap().shutdown().unwrap();
        // The accept loop woke and closed the listener although the
        // watch connection is still open.
        assert!(
            within_10s(|| TcpStream::connect(&addr).is_err()),
            "the daemon still accepts connections after its shutdown"
        );
        assert!(!server.is_finished(), "serve() left a watch streaming");
        events
            .send(ServiceEvent::Failed {
                error: "end of the test job".into(),
            })
            .unwrap();
        let got: Vec<ServiceEvent> = stream.collect();
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(within_10s(|| server.is_finished()), "serve() still blocked");
        server.join().unwrap().unwrap();
    }

    /// A sort8 `cpu`-chain campaign of `experiments` faults.
    fn campaign(name: &str, experiments: usize) -> Campaign {
        Campaign::builder(name, "thor-card", "sort8")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: None,
            })
            .fault_model(FaultModel::BitFlip)
            .window(0, 900)
            .experiments(experiments)
            .seed(2001)
            .build()
            .expect("valid campaign")
    }

    /// A fresh database path for this test process.
    fn tmp_db(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("goofi-daemon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join(name);
        let _ = std::fs::remove_file(&db);
        db
    }

    /// A daemon over an in-process [`LocalService`] on database `name`,
    /// serving on its own thread: its address and the serving thread.
    fn serve_local(name: &str) -> (String, std::thread::JoinHandle<Result<()>>) {
        let service = LocalService::new(tmp_db(name), standard_provider());
        let daemon = Daemon::bind("127.0.0.1:0", service).unwrap();
        let addr = daemon.local_addr().unwrap().to_string();
        (addr, std::thread::spawn(move || daemon.serve()))
    }

    #[test]
    fn a_remote_watch_dropped_after_its_first_event_does_not_wedge_the_daemon() {
        let (addr, server) = serve_local("dropped-watch.db");
        let mut client = RemoteService::connect(&addr).unwrap();
        let job = client
            .submit(JobSpec::new(CampaignRef::Inline(campaign("dropped", 2000))))
            .unwrap();
        let mut stream = client.watch(&job, true).unwrap();
        assert!(
            matches!(stream.next(), Some(ServiceEvent::Queued { .. })),
            "the watch starts with the job's first event"
        );
        drop(stream);
        // The daemon still answers, and its shutdown waits only for the
        // job, not for the abandoned watch.
        assert!(client.status(&job).is_ok());
        client.shutdown().unwrap();
        assert!(within_10s(|| server.is_finished()), "serve() still blocked");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn a_remote_watch_of_a_finished_job_yields_the_local_watch_events() {
        let spec = JobSpec::new(CampaignRef::Inline(campaign("replayed", 40)));
        let mut local = LocalService::new(tmp_db("replay-local.db"), standard_provider());
        let job = local.submit(spec.clone()).unwrap();
        local.join();
        let local_events: Vec<ServiceEvent> = local.watch(&job, true).unwrap().collect();
        assert!(matches!(
            local_events.last(),
            Some(ServiceEvent::Completed { .. })
        ));

        let (addr, server) = serve_local("replay-remote.db");
        let mut client = RemoteService::connect(&addr).unwrap();
        let job = client.submit(spec).unwrap();
        assert!(
            within_10s(|| client.status(&job).unwrap().is_terminal()),
            "the job never finished"
        );
        let remote_events: Vec<ServiceEvent> = client.watch(&job, true).unwrap().collect();
        assert_eq!(remote_events, local_events);
        client.shutdown().unwrap();
        assert!(within_10s(|| server.is_finished()), "serve() still blocked");
        server.join().unwrap().unwrap();
    }
}
