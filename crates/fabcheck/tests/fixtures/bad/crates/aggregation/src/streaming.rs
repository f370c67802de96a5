//! Deliberately bad fixture: the hot ingest entry dials a TCP socket.
//! The serving shell (`crates/serve/`) is blessed for I/O, but the core
//! is not — a stray `TcpStream` here must still fail `--ci`.
//! Never compiled — only scanned.

pub struct StreamingAggregator;

impl StreamingAggregator {
    /// `io-on-hot-path`: blocking network I/O inside the hot entry.
    pub fn ingest(&mut self, update: &[f32]) -> usize {
        let _probe = std::net::TcpStream::connect("127.0.0.1:9");
        update.len()
    }
}
