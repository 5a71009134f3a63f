//! A pipelining HTTP/1.1 client for one keep-alive connection.
//!
//! Requests are rendered to bytes ahead of time; a batch is written in one
//! `write_all` and the next batch is sent only after every reply of the
//! previous one has been read (a closed loop of depth = batch size). With
//! one server worker this keeps client and worker busy on their own cores,
//! so the measured time is the program's service time and not the
//! scheduler's wake-up latency.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// What the benchmark needs from one reply. The body is consumed in place
/// (its newlines counted — one per answer triple of `POST /query`) unless
/// the caller asks for a copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub head_bytes: usize,
    pub body_bytes: usize,
    pub body_lines: usize,
}

/// Renders one request. `body` may be empty (`GET`).
pub fn render(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: swdb\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

pub struct Client<S> {
    stream: S,
    buf: Vec<u8>,
    /// `buf[start..end]` holds received, not yet consumed bytes.
    start: usize,
    end: usize,
}

impl Client<TcpStream> {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client::over(stream))
    }
}

impl<S: Read + Write> Client<S> {
    pub fn over(stream: S) -> Self {
        Client {
            stream,
            buf: vec![0; 256 << 10],
            start: 0,
            end: 0,
        }
    }

    /// Receives more bytes, first making room at the end of the buffer.
    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response head larger than the receive buffer",
                ));
            }
        }
        match self.stream.read(&mut self.buf[self.end..])? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.end += n;
                Ok(())
            }
        }
    }

    /// Reads one reply; appends its body to `keep` when given.
    pub fn read_reply(&mut self, mut keep: Option<&mut Vec<u8>>) -> io::Result<Reply> {
        let mut scanned = 0usize;
        let head_len = loop {
            let window = &self.buf[self.start..self.end];
            let from = scanned.saturating_sub(3);
            if let Some(at) = window[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + at + 4;
            }
            scanned = window.len();
            self.fill()?;
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[self.start..self.start + head_len])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut remaining: usize = lines
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("response without content-length"))?;
        self.start += head_len;
        let mut reply = Reply {
            status,
            head_bytes: head_len,
            body_bytes: remaining,
            body_lines: 0,
        };
        while remaining > 0 {
            if self.start == self.end {
                self.fill()?;
            }
            let take = remaining.min(self.end - self.start);
            let part = &self.buf[self.start..self.start + take];
            reply.body_lines += part.iter().filter(|&&b| b == b'\n').count();
            if let Some(keep) = keep.as_deref_mut() {
                keep.extend_from_slice(part);
            }
            self.start += take;
            remaining -= take;
        }
        Ok(reply)
    }

    /// Writes rendered requests without waiting for their replies.
    pub fn send(&mut self, requests: &[u8]) -> io::Result<()> {
        self.stream.write_all(requests)
    }

    /// One closed-loop step: writes `requests` (already concatenated) and
    /// reads `count` replies into `out`.
    pub fn exchange(
        &mut self,
        requests: &[u8],
        count: usize,
        out: &mut Vec<Reply>,
    ) -> io::Result<()> {
        self.send(requests)?;
        for _ in 0..count {
            out.push(self.read_reply(None)?);
        }
        Ok(())
    }

    /// Depth-1 exchange of one rendered request, keeping the body.
    pub fn exchange_keeping(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<Reply> {
        self.send(request)?;
        body.clear();
        self.read_reply(Some(body))
    }

    /// Depth-1 request that keeps the body (correctness checks, set-up).
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(Reply, Vec<u8>)> {
        let mut kept = Vec::new();
        let reply = self.exchange_keeping(&render(method, path, body), &mut kept)?;
        Ok((reply, kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake peer that hands out its bytes in fixed-size dribbles.
    struct Dribble {
        data: Vec<u8>,
        at: usize,
        chunk: usize,
        written: Vec<u8>,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\ncontent-type: text/plain\r\nContent-Length: {}\r\n\
             connection: keep-alive\r\nx-swdb-epoch: 3\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn three_replies(chunk: usize) -> Vec<Reply> {
        let mut data = response(200, "<a> <p> <b> .\n<a> <p> <c> .\n");
        data.extend(response(503, ""));
        data.extend(response(200, "x\n"));
        let mut client = Client::over(Dribble {
            data,
            at: 0,
            chunk,
            written: Vec::new(),
        });
        let mut out = Vec::new();
        client.exchange(b"three requests", 3, &mut out).unwrap();
        assert_eq!(client.stream.written, b"three requests");
        // Nothing is left over and a fourth read reports the closed peer.
        assert!(client.read_reply(None).is_err());
        out
    }

    #[test]
    fn parses_back_to_back_and_split_responses_alike() {
        let whole = three_replies(1 << 20);
        let seen: Vec<_> = whole
            .iter()
            .map(|r| (r.status, r.body_bytes, r.body_lines))
            .collect();
        assert_eq!(seen, vec![(200, 28, 2), (503, 0, 0), (200, 2, 1)]);
        assert_eq!(whole[1].head_bytes, response(503, "").len());
        for chunk in [1, 2, 3, 5, 7, 64, 113] {
            assert_eq!(three_replies(chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn bodies_larger_than_the_buffer_stream_through() {
        let body = "<s> <p> <o> .\n".repeat(40_000); // 560 kB > 256 kB buffer
        let mut client = Client::over(Dribble {
            data: response(200, &body),
            at: 0,
            chunk: 10_000,
            written: Vec::new(),
        });
        let (reply, kept) = client.call("POST", "/query", "q").unwrap();
        assert_eq!(reply.body_lines, 40_000);
        assert_eq!(kept.len(), body.len());
        assert!(client
            .stream
            .written
            .starts_with(b"POST /query HTTP/1.1\r\n"));
        assert!(client
            .stream
            .written
            .ends_with(b"content-length: 1\r\n\r\nq"));
    }
}
