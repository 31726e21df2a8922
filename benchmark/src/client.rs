//! The load generator's connection: wire V1 over loopback, one
//! connection, raw response frames kept as bytes so decoding stays off
//! the clock.

use softhw_service::{FrameDecoder, Request, RequestClass, Response};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const TERMINATOR: &[u8] = b"\n%%\n";

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    start: usize,
    /// Where the terminator search resumes (never re-scans old bytes).
    scan: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
            scan: 0,
        })
    }

    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Appends the next response frame (terminator included) to `out`.
    /// Body lines that start with `%` are stuffed on the wire, so a
    /// newline-delimited `%%` can only be the terminator.
    pub fn recv(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        loop {
            let hay = &self.buf[self.scan..];
            if let Some(pos) = hay.windows(TERMINATOR.len()).position(|w| w == TERMINATOR) {
                let end = self.scan + pos + TERMINATOR.len();
                out.extend_from_slice(&self.buf[self.start..end]);
                self.start = end;
                self.scan = end;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                    self.scan = 0;
                }
                return Ok(());
            }
            // Keep the last three bytes in the window: a terminator may
            // straddle two reads.
            self.scan = self
                .buf
                .len()
                .saturating_sub(TERMINATOR.len() - 1)
                .max(self.start);
            if self.start > (1 << 20) {
                self.buf.drain(..self.start);
                self.scan -= self.start;
                self.start = 0;
            }
            let old = self.buf.len();
            self.buf.resize(old + (1 << 16), 0);
            let n = self.stream.read(&mut self.buf[old..])?;
            self.buf.truncate(old + n);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-frame",
                ));
            }
        }
    }

    /// One lockstep exchange; the raw response is appended to `out`.
    pub fn roundtrip(&mut self, frame: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
        self.send(frame)?;
        self.recv(out)
    }

    /// A decoded exchange for the benchmark's own control traffic
    /// (HELLO, STATS, METRICS); never used inside a timed window.
    pub fn ask(&mut self, req: &Request) -> io::Result<Response> {
        let mut raw = Vec::new();
        self.roundtrip(req.encode().as_bytes(), &mut raw)?;
        decode_response(&raw).map_err(io::Error::other)
    }

    /// The METRICS exposition lines.
    pub fn metrics(&mut self) -> io::Result<Vec<String>> {
        match self.ask(&Request::new(RequestClass::Metrics, ""))? {
            Response::Metrics { lines } => Ok(lines),
            other => Err(io::Error::other(format!("METRICS answered {other:?}"))),
        }
    }

    /// The STATS fields for the schema of `req` (cross-stripe counters
    /// ride along), whatever class `req` itself asks for.
    pub fn stats(&mut self, req: &Request) -> io::Result<Vec<(String, String)>> {
        let req = Request {
            class: RequestClass::Stats,
            ..req.clone()
        };
        match self.ask(&req)? {
            Response::Stats { fields } => Ok(fields),
            other => Err(io::Error::other(format!("STATS answered {other:?}"))),
        }
    }
}

/// Splits raw frame bytes into un-stuffed lines with the service's own
/// incremental decoder.
pub fn frame_lines(raw: &[u8]) -> Result<Vec<String>, String> {
    let mut frames = Vec::new();
    FrameDecoder::new()
        .push(raw, &mut frames)
        .map_err(|e| e.to_string())?;
    let mut it = frames.into_iter();
    match (it.next(), it.next()) {
        (Some(lines), None) => Ok(lines),
        _ => Err("expected exactly one frame".to_string()),
    }
}

pub fn decode_response(raw: &[u8]) -> Result<Response, String> {
    Response::decode(&frame_lines(raw)?).map_err(|e| e.to_string())
}

/// The raw sub-responses of an `OK BATCH` frame, each re-terminated so
/// it is byte-identical to the single-request frame of the same answer.
pub fn split_batch(raw: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let text = std::str::from_utf8(raw).map_err(|e| e.to_string())?;
    let mut lines = text.split_inclusive('\n');
    let header = lines.next().unwrap_or("");
    let n: usize = header
        .trim_end()
        .strip_prefix("OK BATCH n=")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("not a batch response: {:?}", header.trim_end()))?;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let sep = lines.next().unwrap_or("");
        let m: usize = sep
            .trim_end()
            .strip_prefix("@ lines=")
            .and_then(|m| m.parse().ok())
            .ok_or_else(|| format!("batch item {i}: bad separator {:?}", sep.trim_end()))?;
        let mut item = Vec::new();
        for _ in 0..m {
            let line = lines
                .next()
                .ok_or_else(|| format!("batch item {i}: truncated"))?;
            item.extend_from_slice(line.as_bytes());
        }
        item.extend_from_slice(b"%%\n");
        out.push(item);
    }
    match lines.next() {
        Some("%%\n") => Ok(out),
        other => Err(format!(
            "batch response: expected terminator, got {other:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_batch_recovers_the_single_frames() {
        let a = Response::error("request", "empty schema");
        let b = Response::hello();
        let batch = Response::Batch {
            responses: vec![a.clone(), b.clone()],
        };
        let parts = split_batch(batch.encode().as_bytes()).expect("well-formed batch");
        assert_eq!(
            parts,
            vec![a.encode().into_bytes(), b.encode().into_bytes()]
        );
        assert!(split_batch(b"OK SHW width=1\n%%\n").is_err());
    }

    #[test]
    fn decode_response_reads_one_raw_frame() {
        let raw = Response::hello().encode();
        assert_eq!(decode_response(raw.as_bytes()), Ok(Response::hello()));
        assert!(decode_response(b"OK HELLO\n").is_err());
    }
}
