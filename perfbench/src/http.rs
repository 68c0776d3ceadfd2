//! A minimal keep-alive HTTP/1.1 client for the load phases.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One persistent client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Status and body of one response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send one request (head and body in one write) and read its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        self.stream.write_all(&wire)?;

        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
            .map_err(|_| bad("non-UTF-8 body"))?;
        self.buf.drain(..total);
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}
