//! [`RemoteService`] — the client side of the wire protocol, as a
//! `CampaignService`. The CLI's `submit` / `watch` / `attach` / `cancel`
//! verbs are this struct plus the same renderer `goofi run` uses.

use crate::frame::{read_frame, write_frame, NetError, PROTOCOL_VERSION};
use crate::message::{Event, Request, Response};
use goofi_core::service::{CampaignService, EventStream, JobId, JobSpec, JobStatus};
use goofi_core::{GoofiError, Result};
use std::io::BufReader;
use std::net::TcpStream;

/// A campaign service behind a `goofi-server` daemon. Each request uses
/// its own connection (`watch` holds one open for the event stream), so
/// a `RemoteService` is cheap and carries no connection state. A watch
/// stream reads its frames on the thread that iterates it; dropping the
/// stream closes its connection.
pub struct RemoteService {
    addr: String,
}

fn transport(e: NetError) -> GoofiError {
    GoofiError::Protocol(e.to_string())
}

fn rejected(r: Response) -> GoofiError {
    match r {
        Response::Error { error } => GoofiError::Service(error.to_string()),
        other => GoofiError::Protocol(format!("unexpected server response: {other:?}")),
    }
}

impl RemoteService {
    /// Connects to a daemon at `addr` (`host:port`) and verifies the
    /// protocol version with a `Hello` round trip.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Service`] when the daemon is unreachable or speaks
    /// a different protocol version.
    pub fn connect(addr: impl Into<String>) -> Result<RemoteService> {
        let mut svc = RemoteService { addr: addr.into() };
        match svc.roundtrip(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Hello { .. } => Ok(svc),
            other => Err(rejected(other)),
        }
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures; a daemon that exits before answering counts
    /// as success.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => Ok(()),
            Ok(other) => Err(rejected(other)),
            // The daemon may exit between answering and closing.
            Err(_) => Ok(()),
        }
    }

    fn open(&self) -> Result<TcpStream> {
        TcpStream::connect(&self.addr).map_err(|e| {
            GoofiError::Service(format!("cannot reach goofi server at {}: {e}", self.addr))
        })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        let mut stream = self.open()?;
        write_frame(&mut stream, &req.to_frame().map_err(transport)?).map_err(transport)?;
        let frame = read_frame(&mut stream).map_err(transport)?;
        Response::from_frame(&frame).map_err(transport)
    }
}

impl CampaignService for RemoteService {
    fn submit(&mut self, spec: JobSpec) -> Result<JobId> {
        match self.roundtrip(&Request::Submit { spec })? {
            Response::Submitted { job } => Ok(job),
            other => Err(rejected(other)),
        }
    }

    fn status(&mut self, job: &str) -> Result<JobStatus> {
        match self.roundtrip(&Request::Status {
            job: job.to_owned(),
        })? {
            Response::Status { status, .. } => Ok(status),
            other => Err(rejected(other)),
        }
    }

    fn watch(&mut self, job: &str, from_start: bool) -> Result<EventStream> {
        let mut stream = self.open()?;
        let req = Request::Watch {
            job: job.to_owned(),
            from_start,
        };
        write_frame(&mut stream, &req.to_frame().map_err(transport)?).map_err(transport)?;
        let mut reader = BufReader::new(stream);
        let frame = read_frame(&mut reader).map_err(transport)?;
        match Response::from_frame(&frame).map_err(transport)? {
            Response::Watching { .. } => {}
            other => return Err(rejected(other)),
        }
        // The stream ends at the terminal event, EndOfStream, an
        // undecodable frame or a disconnect.
        Ok(EventStream::new(std::iter::from_fn(
            move || match Event::from_frame(&read_frame(&mut reader).ok()?) {
                Ok(Event::Service { event }) => Some(event),
                _ => None,
            },
        )))
    }

    fn cancel(&mut self, job: &str) -> Result<bool> {
        match self.roundtrip(&Request::Cancel {
            job: job.to_owned(),
        })? {
            Response::Cancelled { delivered, .. } => Ok(delivered),
            other => Err(rejected(other)),
        }
    }

    fn jobs(&mut self) -> Result<Vec<(JobId, JobStatus)>> {
        match self.roundtrip(&Request::Jobs)? {
            Response::Jobs { jobs } => Ok(jobs.into_iter().map(|e| (e.job, e.status)).collect()),
            other => Err(rejected(other)),
        }
    }
}
