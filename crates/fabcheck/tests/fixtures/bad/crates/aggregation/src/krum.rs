//! Deliberately bad fixture: the hot Krum scorer dials a TCP socket.
//! The serving shell (`crates/serve/`) is blessed for I/O, but the core
//! is not — a stray `TcpStream` here must still fail `--ci`.
//! Never compiled — only scanned.

/// `io-on-hot-path`: blocking network I/O inside the hot entry.
pub fn krum_scores_blocked_into(updates: &[&[f32]], f: usize, out: &mut [f32]) -> usize {
    let _probe = std::net::TcpStream::connect("127.0.0.1:9");
    out.len() + updates.len() + f
}
