//! The client side of the analysis service: connect, send one
//! newline-delimited JSON request, read one response — with retry,
//! exponential backoff, and jitter around the failure modes a healthy
//! distributed client must expect:
//!
//! - **Connect failure / transport error** → retry with backoff (the
//!   daemon may be restarting; `analyze` is idempotent).
//! - **`overloaded` / `shutting_down`** → honor the server's
//!   `retry_after_ms` hint (never sleeping less than the local backoff),
//!   then retry.
//! - Any other response — including typed job failures like `panic` or
//!   `deadline` — is a *verdict*, returned to the caller as success of
//!   the transport.
//!
//! Jitter is decorrelated via a tiny xorshift PRNG seeded from the clock
//! and pid, so a fleet of clients bounced by the same overload spike does
//! not reconverge on the same retry instant.

use crate::protocol::{ErrorBody, Request, Response};
use jsonio::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side knobs for [`submit`].
#[derive(Debug, Clone)]
pub struct SubmitConfig {
    /// Server address, e.g. `127.0.0.1:7077`.
    pub addr: String,
    /// Total attempts (first try + retries).
    pub attempts: u32,
    /// First backoff; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket read/write timeout; must cover the longest expected job.
    pub io_timeout: Duration,
}

impl Default for SubmitConfig {
    fn default() -> Self {
        SubmitConfig {
            addr: "127.0.0.1:7077".to_string(),
            attempts: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            io_timeout: Duration::from_secs(60),
        }
    }
}

/// Why [`submit`] gave up.
#[derive(Debug)]
pub enum SubmitError {
    /// Every attempt failed at the transport layer (connect/read/write).
    Transport {
        /// Attempts made.
        attempts: u32,
        /// The last I/O error observed.
        last: std::io::Error,
    },
    /// The server kept shedding us (`overloaded`/`shutting_down`) until
    /// attempts ran out.
    Shed {
        /// Attempts made.
        attempts: u32,
        /// The last typed shed response.
        last: ErrorBody,
    },
    /// The server answered something that is not this protocol.
    Protocol(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Transport { attempts, last } => {
                write!(f, "no usable connection after {attempts} attempts: {last}")
            }
            SubmitError::Shed { attempts, last } => write!(
                f,
                "server still {} after {attempts} attempts: {}",
                last.kind, last.message
            ),
            SubmitError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One request/response exchange with retry + exponential backoff +
/// jitter. Returns the first non-shed response the server gives.
pub fn submit(cfg: &SubmitConfig, req: &Request) -> Result<Response, SubmitError> {
    let mut rng = jitter_seed();
    let attempts = cfg.attempts.max(1);
    let mut backoff = cfg.base_backoff;
    let mut last_io: Option<std::io::Error> = None;
    let mut last_shed: Option<ErrorBody> = None;

    for attempt in 0..attempts {
        if attempt > 0 {
            // Server hint (when shedding) wins over the local schedule,
            // but never sleep less than the backoff floor; add up to 50%
            // decorrelated jitter on top.
            let hinted = last_shed
                .as_ref()
                .and_then(|e| e.retry_after_ms)
                .map(Duration::from_millis)
                .unwrap_or(Duration::ZERO)
                .max(backoff);
            let jitter_ms = xorshift(&mut rng) % (hinted.as_millis().max(2) as u64 / 2).max(1);
            std::thread::sleep(hinted + Duration::from_millis(jitter_ms));
            backoff = (backoff * 2).min(cfg.max_backoff);
        }
        match exchange(cfg, req) {
            Ok(Response::Error(e)) if e.kind.is_retryable() => last_shed = Some(e),
            Ok(resp) => return Ok(resp),
            Err(ExchangeError::Io(e)) => last_io = Some(e),
            Err(ExchangeError::Protocol(msg)) => return Err(SubmitError::Protocol(msg)),
        }
    }

    // Report the failure mode of the *last* attempt: a shed response
    // proves the transport works.
    match (last_shed, last_io) {
        (Some(last), _) => Err(SubmitError::Shed { attempts, last }),
        (None, Some(last)) => Err(SubmitError::Transport { attempts, last }),
        (None, None) => unreachable!("every attempt sets one of the two"),
    }
}

enum ExchangeError {
    Io(std::io::Error),
    Protocol(String),
}

impl From<std::io::Error> for ExchangeError {
    fn from(e: std::io::Error) -> Self {
        ExchangeError::Io(e)
    }
}

/// One connect → write → read cycle, no retries.
fn exchange(cfg: &SubmitConfig, req: &Request) -> Result<Response, ExchangeError> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_read_timeout(Some(cfg.io_timeout))?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;

    let mut line = req.to_json().to_string();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let n = reader.read_line(&mut reply)?;
    if n == 0 {
        // Clean EOF instead of a response: the server dropped us
        // (e.g. mid-shutdown) — a transport failure, worth retrying.
        return Err(ExchangeError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response arrived",
        )));
    }
    let value = Value::parse(reply.trim_end())
        .map_err(|e| ExchangeError::Protocol(format!("unparseable response: {e}")))?;
    Response::from_value(value).map_err(ExchangeError::Protocol)
}

fn jitter_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x9e37_79b9);
    // Never zero (xorshift's absorbing state).
    ((nanos << 17) ^ (std::process::id() as u64)) | 1
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stream_is_nonconstant_and_never_sticks_at_zero() {
        let mut s = jitter_seed();
        let vals: Vec<u64> = (0..8).map(|_| xorshift(&mut s)).collect();
        assert!(vals.iter().any(|&v| v != vals[0]));
        assert!(vals.iter().all(|&v| v != 0));
    }

    #[test]
    fn connect_failure_is_reported_as_transport_after_all_attempts() {
        // Reserved port with nothing listening: connect must fail fast.
        let cfg = SubmitConfig {
            addr: "127.0.0.1:1".to_string(),
            attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..SubmitConfig::default()
        };
        match submit(&cfg, &Request::Status { id: 1 }) {
            Err(SubmitError::Transport { attempts: 2, .. }) => {}
            other => panic!("expected transport failure, got {other:?}"),
        }
    }
}
