//! A small blocking client for the daemon's framed protocol.
//!
//! Used by the integration tests, the chaos harness (via
//! [`send_raw`](Client::send_raw), which writes arbitrary bytes so a
//! hostile client can be scripted precisely), and as the reference
//! implementation for anyone speaking the protocol from elsewhere.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::protocol::{FrameBuf, Request, Response};

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// One connection to a daemon.
pub struct Client {
    stream: Stream,
    frames: FrameBuf,
}

impl Client {
    /// Connects over TCP.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream: Stream::Tcp(stream),
            frames: FrameBuf::new(),
        })
    }

    /// Connects over a unix socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream: Stream::Unix(stream),
            frames: FrameBuf::new(),
        })
    }

    /// Writes arbitrary bytes to the daemon — the chaos harness's entry
    /// point for malformed wire traffic.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match &mut self.stream {
            Stream::Tcp(s) => s.write_all(bytes),
            Stream::Unix(s) => s.write_all(bytes),
        }
    }

    /// Reads until one complete response frame arrives, and decodes it
    /// from where the reassembly buffer holds it.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some((kind, payload)) = self
                .frames
                .next_frame()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
            {
                return Response::decode(kind, payload).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                });
            }
            let n = match &mut self.stream {
                Stream::Tcp(s) => s.read(&mut buf)?,
                Stream::Unix(s) => s.read(&mut buf)?,
            };
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            self.frames.push(&buf[..n]);
        }
    }

    /// Sends one request and waits for its response. An unframeably
    /// large request fails client-side with `InvalidInput` — chunk it
    /// instead of letting the daemon poison the connection.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Response> {
        let wire = req
            .encode()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        self.send_raw(&wire)?;
        self.read_response()
    }
}
