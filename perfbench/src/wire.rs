//! Timed operations over one v2 wire connection.

use ksjq_server::{ClientError, ConnectOptions, KsjqClient, Response, ServerStats};
use std::io::ErrorKind;
use std::time::{Duration, Instant};

use crate::inputs::Answer;

/// Read/write bound on every exchange: a reply slower than this counts
/// as a timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Why an attempted operation failed. Every kind counts against
/// `attempted`; none is a slow success.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// An `ERR <code>` frame.
    Refused(String),
    /// No reply within [`IO_TIMEOUT`].
    Timeout,
    /// The connection dropped mid-exchange.
    Dropped,
    /// A reply that is not valid protocol.
    Protocol(String),
}

impl From<ClientError> for Failure {
    fn from(e: ClientError) -> Failure {
        match e {
            ClientError::Io(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                Failure::Timeout
            }
            ClientError::Io(_) => Failure::Dropped,
            ClientError::Server { code, message } => Failure::Refused(format!("{code} {message}")),
            ClientError::Protocol(m) => Failure::Protocol(m),
        }
    }
}

/// One streamed `QUERY` answer.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Send until the last `ROWS` frame is read.
    pub total: Duration,
    /// Send until the first `ROWS` frame is read.
    pub ttfr: Duration,
    pub answer: Answer,
    pub cached: bool,
}

/// Is this raw response line the last frame of its answer?
fn is_last_frame(line: &str) -> bool {
    if !line.starts_with("ROWS ") {
        return true; // ERR or anything unexpected ends the exchange
    }
    match line.split(' ').find_map(|t| t.strip_prefix("part=")) {
        Some(part) => part.split_once('/').is_none_or(|(i, m)| i == m),
        None => true, // a v1 one-shot frame
    }
}

#[derive(Debug)]
pub struct Conn {
    client: KsjqClient,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let client = KsjqClient::connect_with(addr, &ConnectOptions::all(IO_TIMEOUT))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        if client.version() != 2 {
            return Err(format!("{addr} did not negotiate protocol v2"));
        }
        Ok(Conn { client })
    }

    /// Send a `QUERY` line and stream its answer. The clock stops at the
    /// last frame; frames are decoded after that.
    pub fn query(&mut self, line: &str) -> Result<Reply, Failure> {
        let start = Instant::now();
        let first = self.client.raw(line)?;
        let ttfr = start.elapsed();
        let mut lines = vec![first];
        while !is_last_frame(lines.last().expect("never empty")) {
            lines.push(self.client.raw_read()?);
        }
        let total = start.elapsed();
        let mut pairs = Vec::new();
        let mut cached = false;
        let mut expected = 0;
        for (i, line) in lines.iter().enumerate() {
            match Response::parse(line).map_err(Failure::Protocol)? {
                Response::Chunk(chunk) => {
                    if chunk.part as usize != i + 1 || chunk.parts as usize != lines.len() {
                        return Err(Failure::Protocol(format!(
                            "frame {} of {} claims part {}/{}",
                            i + 1,
                            lines.len(),
                            chunk.part,
                            chunk.parts
                        )));
                    }
                    cached = chunk.cached;
                    expected = chunk.total;
                    pairs.extend(chunk.pairs);
                }
                Response::Error { code, message } => {
                    return Err(Failure::Refused(format!("{code} {message}")))
                }
                other => return Err(Failure::Protocol(format!("expected ROWS, got {other}"))),
            }
        }
        if pairs.len() != expected {
            return Err(Failure::Protocol(format!(
                "answer claims {expected} rows, streamed {}",
                pairs.len()
            )));
        }
        Ok(Reply {
            total,
            ttfr,
            answer: Answer::of(pairs),
            cached,
        })
    }

    /// `APPEND a1 ROWS <delta>`, timed until the (durable) `OK`; returns
    /// the time and the acknowledgement's text.
    pub fn append(&mut self, delta: &str) -> Result<(Duration, String), Failure> {
        let start = Instant::now();
        let info = self.client.append_rows("a1", delta)?;
        Ok((start.elapsed(), info))
    }

    pub fn load(&mut self, name: &str, csv: &str) -> Result<(), String> {
        self.client
            .load_csv(name, csv)
            .map(drop)
            .map_err(|e| format!("LOAD {name}: {e}"))
    }

    pub fn stats(&mut self) -> Result<ServerStats, String> {
        self.client.stats().map_err(|e| format!("STATS: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_frame_detection() {
        assert!(!is_last_frame(
            "ROWS k=11 us=5 cached=0 n=3 part=1/2 cursor=1:2 0:1"
        ));
        assert!(is_last_frame("ROWS k=11 us=5 cached=0 n=3 part=2/2 0:1"));
        assert!(is_last_frame("ROWS k=11 us=5 cached=0 n=1 0:1"));
        assert!(is_last_frame("ERR timeout deadline exceeded"));
    }
}
